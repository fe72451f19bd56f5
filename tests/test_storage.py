import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import (
    EvolutionSequence,
    KrausMap,
    PureState,
    StoredEvolution,
    canonical_kraus,
    entropy,
    kraus_from_ancilla_basis,
    named_channel,
    probabilistic_retrieve,
    retrieval_statistics,
    stinespring,
    storage_overlap,
    store,
    stored_state,
    typical_compress,
    verify_sequence,
    weyl_basis,
)
from evometry.gates import H, I2, X, Z
from evometry import storage
from evometry import linalg
from evometry.linalg import _filled, _fourier, max_entangled, random_unitary


def test_stored_state_of_identity_is_max_entangled():
    v = stored_state(I2)
    assert np.abs(v - max_entangled(2)).max() < 1e-12


def test_stored_states_of_orthogonal_unitaries_are_orthogonal():
    vx = stored_state(X)
    vz = stored_state(Z)
    assert abs(np.vdot(vx, vz)) < 1e-12
    assert abs(np.linalg.norm(vx) - 1.0) < 1e-12


def test_storage_overlap_is_normalized_trace():
    rng = np.random.default_rng(41)
    u = random_unitary(2, rng)
    v = random_unitary(2, rng)
    want = np.trace(u.conj().T @ v) / 2
    assert abs(storage_overlap(u, v) - want) < 1e-12


def test_stored_state_rejects_zero_operator():
    with pytest.raises(ValueError):
        stored_state(np.zeros((2, 2), dtype=complex))


def test_stored_state_rejects_nan_operator():
    with pytest.raises(ValueError, match="annihilates"):
        stored_state(np.full((2, 2), np.nan, dtype=complex))


def test_store_builds_unit_norm_records():
    m = named_channel("dephasing:0.5")
    rec = store(m, (0, 1, 1, 0))
    assert len(rec.sequence) == 4
    for v in rec.states:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10


def test_store_keeps_the_states_as_one_read_only_array():
    m = named_channel("depolarizing:0.3")
    rec = store(m, (0, 3, 2))
    assert rec.states.shape == (3, 4)
    assert not rec.states.flags.writeable
    for row, i in zip(rec.states, (0, 3, 2)):
        assert np.array_equal(row, stored_state(m.operators[i]))
    assert store(m, ()).states.shape == (0, 4)


def test_store_refuses_a_zero_record():
    m = KrausMap((I2, np.zeros((2, 2))))
    assert store(m, (0, 0)).states.shape == (2, 4)
    with pytest.raises(ValueError, match="annihilates"):
        store(m, (0, 1))


@pytest.mark.parametrize("indices", [(0, 1), (0, 3)])
def test_store_refuses_a_sequence_of_another_map(indices):
    # (0, 3) used to raise a bare IndexError, (0, 1) to store the
    # dephasing records under the depolarizing sequence
    a = named_channel("dephasing:0.5")
    b = named_channel("depolarizing:0.3")
    with pytest.raises(ValueError, match="another map"):
        store(a, EvolutionSequence(b, indices))
    # an equal map built separately is the same map
    assert store(named_channel("dephasing:0.5"),
                 EvolutionSequence(a, (0, 1))) == store(a, (0, 1))


@pytest.mark.parametrize("states", [(), np.zeros((3, 4)), np.zeros((2, 2))])
def test_stored_evolution_refuses_a_state_count_or_size_off_the_sequence(
        states):
    seq = EvolutionSequence(named_channel("dephasing:0.5"), (0, 1))
    with pytest.raises(ValueError, match="shape"):
        StoredEvolution(seq, states)


def test_sequence_index_range_checked():
    m = named_channel("dephasing:0.5")
    with pytest.raises(ValueError):
        EvolutionSequence(m, (0, 2))


@pytest.mark.parametrize("index", [0.7, 1.9])
def test_sequence_refuses_a_non_integer_index(index):
    """An index used to be truncated by int(): 0.7 and 1.9 read as 0, 1."""
    with pytest.raises(ValueError, match="indices must be integers"):
        EvolutionSequence(named_channel("dephasing:0.5"), (0, index))


def test_sequence_takes_numpy_integers():
    seq = EvolutionSequence(named_channel("dephasing:0.5"),
                            (np.int64(1), 0))
    assert seq.indices == (1, 0)
    assert all(type(i) is int for i in seq.indices)


def test_entropy_is_the_rate_to_store_draws():
    # bits per use needed to store draws from the map
    assert abs(entropy(named_channel("dephasing:0.5")) - 1.0) < 1e-12
    assert abs(entropy(named_channel("unitary:H"))) < 1e-12


def test_typical_compress_frozen_binary_case():
    """p = (0.9, 0.1), n = 16, delta = 0.1 keeps 120 strings."""
    t = typical_compress(named_channel("dephasing:0.1"), 16, 0.1)
    assert t.kept_dim == 120
    assert abs(t.rate - 0.4316806622255324) < 1e-12
    assert abs(t.infidelity_bound - 0.7254784905404694) < 1e-12


def test_typical_compress_frozen_three_quarters_case():
    t = typical_compress(named_channel("dephasing:0.25"), 10, 0.15)
    assert t.kept_dim == 165
    assert abs(t.rate - 0.7366322214245816) < 1e-12
    assert abs(t.infidelity_bound - 0.46815013885498047) < 1e-12


def test_typical_compress_uniform_keeps_everything():
    t = typical_compress(named_channel("dephasing:0.5"), 10, 0.0)
    assert t.kept_dim == 1024
    assert abs(t.rate - 1.0) < 1e-12
    assert t.infidelity_bound < 1e-12


def test_typical_compress_unitary_is_free():
    t = typical_compress(named_channel("unitary:H"), 12, 0.1)
    assert t.kept_dim == 1
    assert t.rate == 0.0
    assert t.infidelity_bound == 0.0


def test_typical_compress_caps_block_length():
    with pytest.raises(ValueError):
        typical_compress(named_channel("dephasing:0.5"), 21, 0.1)


def _reference_compositions(n, k):
    """Reference: the compositions of n into k parts, one at a time."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _reference_compositions(n - first, k - 1):
            yield (first,) + rest


def _reference_multinomial(n, counts):
    out = 1
    rest = n
    for c in counts[:-1]:
        out *= math.comb(rest, c)
        rest -= c
    return out


def _reference_typical(p, n, delta):
    """Reference: typical_compress as a per-composition loop over the
    canonical spectrum p, returning (kept_dim, infidelity_bound, rate)."""
    if p.size == 1:
        return 1, 0.0, 0.0
    surprisal = -np.log2(p)
    ent = float(p @ surprisal)
    kept = 0
    mass_terms = []
    for counts in _reference_compositions(n, p.size):
        s = sum(c * surprisal[j] for j, c in enumerate(counts)) / n
        if abs(s - ent) <= delta + 1e-12:
            size = _reference_multinomial(n, counts)
            kept += size
            mass_terms.append(
                size * math.prod(p[j] ** c for j, c in enumerate(counts)))
    rate = math.log2(kept) / n if kept else 0.0
    return kept, max(0.0, 1.0 - math.fsum(mass_terms)), rate


def _unitary_mixture(weights, d=3):
    """sqrt(w_i) W_i over distinct Weyl elements W_i: a map whose
    canonical spectrum is the weights."""
    els = weyl_basis(d).elements[:len(weights)]
    return KrausMap(tuple(np.sqrt(w) * u for w, u in zip(weights, els)))


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(2, 6),
    n=st.integers(1, 20),
    tied=st.integers(0, 2),
    delta=st.sampled_from([0.0, 1e-3, 0.05, 0.1, 0.3, 1.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_typical_compress_matches_the_composition_loop(k, n, tied, delta,
                                                       seed):
    """Random spectra, uniform ones (every surprisal tied) and spectra
    with one repeated weight, over the delta = 0 edge and wider windows."""
    rng = np.random.default_rng(seed)
    if tied == 0:
        weights = rng.dirichlet(np.ones(k))
    elif tied == 1:
        weights = np.full(k, 1.0 / k)
    else:
        weights = rng.dirichlet(np.ones(k - 1))
        weights = np.append(weights, weights[0]) / (1 + weights[0])
    m = _unitary_mixture(weights)
    p = canonical_kraus(m).probabilities
    got = typical_compress(m, n, delta)
    kept, tail, rate = _reference_typical(p, n, delta)
    assert got.kept_dim == kept
    assert got.rate == rate
    assert abs(got.infidelity_bound - tail) <= 4.4e-16


@pytest.mark.parametrize("n, k", [(1, 2), (7, 2), (20, 3), (16, 4), (10, 5),
                                  (8, 6), (3, 9)])
def test_composition_table_invariants(n, k):
    counts, sizes = storage._composition_table(n, k)
    assert counts.shape == (math.comb(n + k - 1, k - 1), k)
    assert counts.dtype == np.uint8 and sizes.dtype == np.int64
    assert (counts.sum(axis=1) == n).all()
    assert sum(sizes.tolist()) == k ** n
    assert counts.tolist() == [list(c) for c in _reference_compositions(n, k)]
    assert sizes.tolist() == [_reference_multinomial(n, c)
                              for c in counts.tolist()]
    for table in (counts, sizes):
        with pytest.raises(ValueError):
            table[0] = 0
        with pytest.raises(ValueError, match="WRITEABLE"):
            table.setflags(write=True)


def test_typical_compress_refuses_a_table_over_budget():
    """16 weights at n = 20 have C(35, 15) = 3247943160 compositions."""
    m = _unitary_mixture(np.full(16, 1 / 16), d=4)
    with pytest.raises(ValueError, match="3247943160 compositions"):
        typical_compress(m, 20, 0.1)
    # eight weights at n = 20 fit the budget
    rows = math.comb(27, 7)
    assert rows * 8 <= storage.MAX_TABLE_CELLS < math.comb(28, 8) * 9


def test_typical_rate_approaches_entropy():
    h = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    m = named_channel("dephasing:0.25")
    dist = [abs(typical_compress(m, n, 0.1).rate - h) for n in (4, 8, 12, 16)]
    assert all(a > b for a, b in zip(dist, dist[1:]))
    assert dist[-1] < 0.02


def test_verify_sequence_accepts_honest_record():
    m = named_channel("dephasing:0.5")
    dil = stinespring(m)
    rep = kraus_from_ancilla_basis(dil)
    weights = np.array([np.trace(op.conj().T @ op).real / 2
                        for op in rep.operators])
    rng = np.random.default_rng(9)
    claim = tuple(int(i) for i in rng.choice(2, size=60, p=weights))
    rec = verify_sequence(dil, None, EvolutionSequence(rep, claim), 9)
    assert rec.accepted
    assert rec.sampled == rec.claimed == claim
    assert np.abs(np.asarray(rec.step_weights) - 0.5).max() < 1e-12


def test_verify_sequence_rejects_corrupted_record():
    m = named_channel("dephasing:0.5")
    dil = stinespring(m)
    rep = kraus_from_ancilla_basis(dil)
    weights = np.array([np.trace(op.conj().T @ op).real / 2
                        for op in rep.operators])
    rng = np.random.default_rng(9)
    claim = list(int(i) for i in rng.choice(2, size=60, p=weights))
    claim[7] ^= 1
    rec = verify_sequence(dil, None, EvolutionSequence(rep, tuple(claim)), 9)
    assert not rec.accepted


def test_verify_sequence_checks_representation():
    dil = stinespring(named_channel("dephasing:0.5"))
    wrong = named_channel("dephasing:0.3")
    with pytest.raises(ValueError):
        verify_sequence(dil, None, EvolutionSequence(wrong, (0, 1)), 3)


def test_phase_gate_retrieval_heralds_at_half():
    """A stored phase gate spans two canonical elements: herald rate 1/2."""
    s = np.diag([1.0, 1j])
    m = KrausMap((np.sqrt(0.5) * s, np.sqrt(0.5) * s.conj().T))
    psi = PureState(np.array([0.6, 0.8], dtype=complex))
    out = probabilistic_retrieve(0, m, psi, 5)
    assert abs(out.herald_probability - 0.5) < 1e-12
    stats = retrieval_statistics(0, m, psi, 4000, 5)
    assert stats["support_dim"] == 2
    assert abs(stats["success_fidelity"] - 1.0) < 1e-9
    sigma = np.sqrt(0.25 / 4000)
    assert abs(stats["empirical_rate"] - 0.5) <= 5 * sigma


def test_generic_unitary_retrieval_heralds_at_quarter():
    """An element filling all four canonical slots heralds at 1/4."""
    rng = np.random.default_rng(43)
    u = random_unitary(2, rng)
    m = KrausMap(tuple(u @ p / 2 for p in (I2, X, Z, X @ Z)))
    psi = PureState(np.array([1.0, 0.0], dtype=complex))
    stats = retrieval_statistics(0, m, psi, 4000, 44)
    assert stats["support_dim"] == 4
    assert abs(stats["herald_probability"] - 0.25) < 1e-12
    assert abs(stats["success_fidelity"] - 1.0) < 1e-9


def test_identity_retrieval_always_succeeds():
    m = named_channel("unitary:I")
    psi = PureState(np.array([0.0, 1.0], dtype=complex))
    out = probabilistic_retrieve(0, m, psi, 1)
    assert out.heralded_success
    assert abs(out.herald_probability - 1.0) < 1e-12


def test_retrieval_output_is_element_applied():
    m = named_channel("dephasing:0.5")
    psi = PureState(np.array([0.6, 0.8], dtype=complex))
    hits = 0
    for seed in range(30):
        out = probabilistic_retrieve(1, m, psi, seed)
        if out.heralded_success:
            hits += 1
            want = Z @ psi.amplitudes
            want /= np.linalg.norm(want)
            phase = np.vdot(want, out.output.amplitudes)
            assert abs(abs(phase) - 1.0) < 1e-9
    assert hits > 0


def test_retrieval_herald_is_scale_invariant():
    # sqrt-weighted unitary elements still herald at 1/support
    m = named_channel("dephasing:0.25")
    psi = PureState(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    out = probabilistic_retrieve(0, m, psi, 2)
    assert abs(out.herald_probability - 0.5) < 1e-12


@pytest.mark.parametrize("retrieve", [
    lambda psi: probabilistic_retrieve(0, named_channel("dephasing:0.5"),
                                       psi, 1),
    lambda psi: retrieval_statistics(0, named_channel("dephasing:0.5"),
                                     psi, 10, 1),
])
def test_retrieval_takes_a_plain_vector_as_the_circuits_do(retrieve):
    """A plain vector used to raise AttributeError on psi.dim."""
    psi = np.array([0.6, 0.8j])
    assert retrieve(psi) == retrieve(PureState(psi))
    with pytest.raises(ValueError, match="state norm is not 1"):
        retrieve(np.array([1.0, 1.0]))
    # a PureState's norm is checked again: one filled past its validator
    with pytest.raises(ValueError, match="state norm is not 1"):
        retrieve(_filled(PureState, amplitudes=np.array([1.0, 1.0])))
    with pytest.raises(ValueError, match="state dimension does not match"):
        retrieve(np.array([1.0, 0.0, 0.0]))


def test_verify_sequence_requires_a_seed():
    dil = stinespring(named_channel("dephasing:0.5"))
    rep = kraus_from_ancilla_basis(dil)
    with pytest.raises(ValueError, match="seed"):
        verify_sequence(dil, None, EvolutionSequence(rep, (0, 1)), None)


def test_retrieval_herald_rate_is_the_normalized_one():
    # the canonical elements diag(1,0,0,0) and diag(0,1,1,1) are not
    # proportional to unitaries: d ||M psi||^2 / (tr(M^dag M) D) would
    # read 2.0 here, while the heralded branch carries half the weight
    m = KrausMap((np.diag([1.0, 0, 0, 0]), np.diag([0.0, 1, 1, 1])))
    psi = PureState(np.array([1.0, 0, 0, 0], dtype=complex))
    out = probabilistic_retrieve(0, m, psi, 1)
    assert abs(out.herald_probability - 0.5) < 1e-12


def test_unitary_frame_retrieval_heralds_at_one_over_support():
    m = KrausMap((np.sqrt(0.5) * I2, np.sqrt(0.3) * X, np.sqrt(0.2) * Z))
    rng = np.random.default_rng(45)
    for index in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = PureState(v / np.linalg.norm(v))
        out = probabilistic_retrieve(index, m, psi, index)
        assert abs(out.herald_probability - 1.0 / 3.0) < 1e-12


def test_stored_evolution_rejects_nan_state():
    seq = EvolutionSequence(named_channel("dephasing:0.5"), (0,))
    with pytest.raises(ValueError, match="unit vectors"):
        StoredEvolution(seq, (np.full(4, np.nan, dtype=complex),))


def test_verify_sequence_rejects_nan_representation(monkeypatch):
    # a NaN representation cannot pass the map validators, so it is
    # injected past them to reach the comparison itself
    nan_map = object.__new__(KrausMap)
    object.__setattr__(nan_map, "operators",
                       (np.full((2, 2), np.nan, dtype=complex),) * 2)
    monkeypatch.setattr(storage, "kraus_from_ancilla_basis",
                        lambda dil, basis: nan_map)
    m = named_channel("dephasing:0.5")
    with pytest.raises(ValueError, match="does not match"):
        verify_sequence(stinespring(m), None, EvolutionSequence(m, (0, 1)), 3)


@pytest.mark.parametrize("index", [2, 5, -1])
def test_retrieval_rejects_index_outside_the_map(index):
    m = named_channel("dephasing:0.5")
    psi = PureState(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="outside the map"):
        retrieval_statistics(index, m, psi, 10, 1)
    with pytest.raises(ValueError, match="outside the map"):
        probabilistic_retrieve(index, m, psi, 1)


def test_readout_matches_the_dense_fourier_product():
    """The register's FFT readout against the dense product with the
    conjugate Fourier matrix, the readout it replaced, on random complex
    rows at K = 1..64: the branches agree within 1e-14 of the largest
    row entry, branch 0 is the herald sum(rows) / sqrt(K), and the
    weights sum to 1."""
    rng = np.random.default_rng(36)
    for k in range(1, 65):
        scale = rng.uniform(0.1, 10)
        rows = scale * (rng.normal(size=(k, 3)) + 1j * rng.normal(size=(k, 3)))
        branches, weights = storage._readout(rows)
        tol = 1e-14 * np.abs(rows).max()
        assert np.abs(branches - _fourier(k).conj() @ rows).max() <= tol
        assert np.abs(branches[0] - rows.sum(axis=0) / np.sqrt(k)).max() <= tol
        assert abs(weights.sum() - 1.0) <= 1e-15


def test_retrieval_builds_no_fourier_table():
    """A K = 256 register (a random 256-element map on d = 16) is read
    without a K x K table: neither cached Fourier table gains an entry."""
    rng = np.random.default_rng(37)
    iso = np.linalg.qr(rng.normal(size=(4096, 16))
                       + 1j * rng.normal(size=(4096, 16)))[0]
    m = KrausMap(tuple(iso.reshape(256, 16, 16)))
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    tables = (linalg._kernel, linalg._fourier)
    before = [t.cache_info().currsize for t in tables]
    stats = retrieval_statistics(0, m, psi, 100, 1)
    assert stats["support_dim"] == 256
    assert abs(stats["success_fidelity"] - 1.0) <= 1e-12
    assert [t.cache_info().currsize for t in tables] == before
