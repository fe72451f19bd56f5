"""The paper's invariants as properties over random inputs: the Born law
and the expansion round trip over any trace-orthogonal basis, the map
entropy under a change of presentation, the dilation read out in any
ancilla basis, and the herald rate of unitary-frame maps."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evometry import (
    KrausMap,
    PureState,
    entropy,
    equivalent,
    expand,
    kraus_from_ancilla_basis,
    kraus_rotation,
    pauli_basis,
    probabilistic_retrieve,
    reconstruct,
    rotate_basis,
    stinespring,
    weyl_basis,
    which_unitary_distribution,
)
from evometry.linalg import dag, random_state, random_unitary

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


@FEW
@given(d=st.integers(2, 3), k=st.integers(1, 4), seed=SEEDS)
def test_stinespring_round_trip_in_a_random_ancilla_basis(d, k, seed):
    rng = np.random.default_rng(seed)
    m = _random_map(d, k, rng)
    b = random_unitary(k, rng)
    rep = kraus_from_ancilla_basis(stinespring(m), b)
    assert equivalent(rep, m)
    # reading ancilla row b_i mixes the elements by b^dag
    assert np.abs(rep.stack - kraus_rotation(m, dag(b)).stack).max() < ATOL


@FEW
@given(d=st.integers(2, 3), k=st.integers(1, 4), seed=SEEDS)
def test_unitary_frame_maps_herald_at_one_over_support(d, k, seed):
    """Elements sqrt(p_i) u0 Z^mu X^nu with distinct weights: every stored
    element is retrieved with probability 1/k from any state."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k))
    assume(p.min() > 1e-6 and (k == 1 or np.diff(np.sort(p)).min() > 1e-6))
    frame = weyl_basis(d, random_unitary(d, rng)).stack
    pick = rng.choice(d * d, size=k, replace=False)
    m = KrausMap(tuple(np.sqrt(p)[:, None, None] * frame[pick]))
    psi = PureState(random_state(d, rng))
    out = probabilistic_retrieve(int(rng.integers(k)), m, psi, seed)
    assert abs(out.herald_probability - 1.0 / k) < ATOL
