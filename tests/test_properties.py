"""The paper's invariants as properties over random inputs: the Born law
and the expansion round trip over any trace-orthogonal basis, the map
entropy under a change of presentation and against the canonical
weights, the dilation read out in any ancilla basis, and the herald rate
of unitary-frame maps."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evometry import (
    EvolutionSequence,
    KrausMap,
    PureState,
    canonical_kraus,
    entropy,
    equivalent,
    expand,
    kraus_from_ancilla_basis,
    kraus_rotation,
    named_channel,
    pauli_basis,
    probabilistic_retrieve,
    reconstruct,
    rotate_basis,
    stinespring,
    weyl_basis,
    which_unitary_distribution,
)
from evometry.gates import GATES
from evometry.linalg import (
    _index,
    _isometry_deviation,
    dag,
    random_state,
    random_unitary,
    shannon_entropy,
)

ATOL = 1e-10
FEW = settings(max_examples=10, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
BASES = st.sampled_from([("pauli", 2), ("pauli", 4), ("weyl", 3),
                         ("weyl", 5), ("rotated", 2), ("rotated", 3)])


def _basis(kind, d, rng):
    if kind == "pauli":
        return pauli_basis(random_unitary(d, rng))
    if kind == "weyl":
        return weyl_basis(d, random_unitary(d, rng))
    return rotate_basis(weyl_basis(d), random_unitary(d * d, rng))


def _random_map(d, k, rng):
    """k elements read off the columns of a Haar isometry C^d -> C^(k d)."""
    return KrausMap(tuple(random_unitary(k * d, rng)[:, :d].reshape(k, d, d)))


@FEW
@given(basis=BASES, seed=SEEDS)
def test_born_weights_sum_to_one_and_expand_inverts(basis, seed):
    rng = np.random.default_rng(seed)
    kind, d = basis
    b = _basis(kind, d, rng)
    p = which_unitary_distribution(random_unitary(d, rng), b).probabilities
    assert p.min() >= 0.0 and abs(p.sum() - 1.0) < ATOL
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert np.abs(reconstruct(expand(op, b), b) - op).max() < ATOL


@FEW
@given(d=st.integers(2, 3), k=st.integers(1, 4), extra=st.integers(0, 2),
       seed=SEEDS)
def test_entropy_is_invariant_under_kraus_rotation(d, k, extra, seed):
    rng = np.random.default_rng(seed)
    m = _random_map(d, k, rng)
    u = random_unitary(k + extra, rng)[:k]
    rotated = kraus_rotation(m, u)
    assert equivalent(rotated, m)
    assert abs(entropy(rotated) - entropy(m)) < 1e-9


def _assert_entropy_is_the_canonical_weights_entropy(m):
    fresh = KrausMap(m.operators)
    got = entropy(fresh)
    assert "_canonical" not in vars(fresh)
    want = shannon_entropy(canonical_kraus(m).probabilities)
    assert abs(got - want) < 1e-12
    # once the canonical form is memoised, its weights give the entropy
    assert entropy(m) == want


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 3),
       kind=st.sampled_from(["thin", "square", "wide", "deficient"]),
       extra=st.integers(1, 3), seed=SEEDS)
def test_entropy_is_the_entropy_of_the_canonical_weights(d, kind, extra,
                                                         seed):
    """The spectrum alone gives the canonical weights' entropy, for
    k < d^2, k = d^2, k > d^2 and a rank below k."""
    rng = np.random.default_rng(seed)
    k = {"thin": max(1, d * d - extra), "square": d * d, "wide": d * d,
         "deficient": min(extra, d * d - 1)}[kind]
    m = _random_map(d, k, rng)
    if kind == "wide":
        m = kraus_rotation(m, random_unitary(k + extra, rng)[:k])
    if kind == "deficient":
        # element 0 split into two equal halves: k + 1 elements, rank k
        ops = m.operators
        m = KrausMap(np.concatenate([ops[:1], ops]) / np.sqrt(
            [2.0, 2.0] + [1.0] * (k - 1))[:, None, None])
    assert len(m) == {"thin": k, "square": k, "wide": k + extra,
                      "deficient": k + 1}[kind]
    _assert_entropy_is_the_canonical_weights_entropy(m)


@pytest.mark.parametrize("tag", ["depolarizing:1", "depolarizing:0.3",
                                 "dephasing:0.5"]
                         + [f"unitary:{g}" for g in GATES])
def test_entropy_of_a_degenerate_spectrum_is_the_canonical_one(tag):
    _assert_entropy_is_the_canonical_weights_entropy(named_channel(tag))


@FEW
@given(d=st.integers(2, 3), k=st.integers(1, 4), seed=SEEDS)
def test_stinespring_round_trip_in_a_random_ancilla_basis(d, k, seed):
    rng = np.random.default_rng(seed)
    m = _random_map(d, k, rng)
    b = random_unitary(k, rng)
    rep = kraus_from_ancilla_basis(stinespring(m), b)
    assert equivalent(rep, m)
    # reading ancilla row b_i mixes the elements by b^dag
    assert np.abs(rep.operators - kraus_rotation(m, dag(b)).operators).max() < ATOL


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 8), k=st.integers(1, 16), seed=SEEDS)
def test_ancilla_readout_is_the_einsum_over_the_isometry(d, k, seed):
    """The readout in a random ancilla basis b equals the reference
    contraction of conj(b) with the isometry V[r, c] = row r of M_c
    within 1e-15; with no basis it is the elements themselves, exactly."""
    rng = np.random.default_rng(seed)
    m = _random_map(d, k, rng)
    dil = stinespring(m)
    b = random_unitary(k, rng)
    want = np.einsum("ic,rcj->irj", b.conj(), m.operators.transpose(1, 0, 2))
    got = kraus_from_ancilla_basis(dil, b).operators
    assert np.abs(got - want).max() <= 1e-15
    assert np.array_equal(kraus_from_ancilla_basis(dil).operators,
                          m.operators)


@FEW
@given(d=st.integers(2, 3), k=st.integers(1, 4), seed=SEEDS)
def test_unitary_frame_maps_herald_at_one_over_support(d, k, seed):
    """Elements sqrt(p_i) u0 Z^mu X^nu with distinct weights: every stored
    element is retrieved with probability 1/k from any state."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k))
    assume(p.min() > 1e-6 and (k == 1 or np.diff(np.sort(p)).min() > 1e-6))
    frame = weyl_basis(d, random_unitary(d, rng)).elements
    pick = rng.choice(d * d, size=k, replace=False)
    m = KrausMap(tuple(np.sqrt(p)[:, None, None] * frame[pick]))
    psi = PureState(random_state(d, rng))
    out = probabilistic_retrieve(int(rng.integers(k)), m, psi, seed)
    assert abs(out.herald_probability - 1.0 / k) < ATOL


INDEX_ITEMS = st.one_of(
    st.integers(-2, 5), st.booleans(),
    st.integers(-2, 5).map(np.int64), st.integers(0, 4).map(np.uint8),
    st.floats(-1, 5), st.just(float("nan")), st.just(None),
    st.just(10 ** 30))


def _sequence_outcome(m, indices):
    try:
        return EvolutionSequence(m, indices).indices
    except ValueError as err:
        return str(err)


def _loop_outcome(m, indices):
    try:
        return tuple(_index(i, len(m), "index") for i in indices)
    except ValueError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 4), indices=st.lists(INDEX_ITEMS, max_size=12))
def test_sequence_check_is_the_index_loop(k, indices):
    """The one-pass check of plain ints gives the indices, the conversions
    and the errors of checking each index with _index, on tuples of plain,
    bool, numpy and float indices, in range or not."""
    m = KrausMap(np.eye(2)[None].repeat(k, 0) / np.sqrt(k))
    got = _sequence_outcome(m, tuple(indices))
    want = _loop_outcome(m, indices)
    assert got == want
    if isinstance(got, tuple):
        assert [type(i) for i in got] == [int] * len(got)


def _eye_deviation(a):
    """The deviation as it was computed with np.eye: the reference."""
    a = np.asarray(a)
    return float(np.abs(a.conj().swapaxes(-1, -2) @ a
                        - np.eye(a.shape[-1])).max())


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(1, 1), (2, 2), (5, 3), (3, 5), (4, 3, 3),
                              (2, 6, 4), (3, 2, 1, 1)]),
       kind=st.sampled_from(["complex", "real", "transposed", "nan"]),
       seed=SEEDS)
def test_isometry_deviation_is_the_eye_subtraction_bit_for_bit(shape, kind,
                                                               seed):
    """Taking 1 off the Gram's diagonal in place gives, bit for bit, the
    deviation that subtracting np.eye gave, on matrices and stacks of any
    layout, and NaN for a NaN entry."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "real":
        a = a.real
    elif kind == "transposed":
        a = np.asfortranarray(a).swapaxes(-1, -2)
    elif kind == "nan":
        a[(0,) * a.ndim] = np.nan
    same = [a]
    if shape[-1] == shape[-2] and kind != "nan":
        same.append(np.linalg.qr(a)[0])
    for x in same:
        got, want = _isometry_deviation(x), _eye_deviation(x)
        assert got == want or (kind == "nan" and np.isnan(got)
                               and np.isnan(want))
    for exact in (np.eye(3, dtype=int), np.eye(2, dtype=bool),
                  [[0, 1], [1, 0]]):
        assert _isometry_deviation(exact) == _eye_deviation(exact) == 0.0
