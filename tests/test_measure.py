import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import basis as basis_module
from evometry import measure as measure_module
from evometry import (
    NotAnEigenoperator,
    OutcomeDistribution,
    PureState,
    TwoTimeObservable,
    circuit_end_state,
    expand,
    measure_choi_side,
    measure_which_unitary,
    measure_which_unitary_qudit,
    observable_commutator_norm,
    pauli_basis,
    rotate_basis,
    temporal_eigenvalue,
    weyl_basis,
    which_unitary_distribution,
)
from evometry.gates import H, I2, X, Y, Z
from evometry.linalg import (
    _sample,
    entanglement_entropy,
    max_entangled,
    random_state,
    random_unitary,
)


def field_unitary(bt):
    return np.cos(bt) * I2 - 1j * np.sin(bt) * Z


def test_field_example_exact_probabilities():
    """cos(Bt) 1 - i sin(Bt) Z at Bt = pi/3 splits 1/4 : 3/4."""
    u = field_unitary(np.pi / 3)
    dist = which_unitary_distribution(u, pauli_basis(dim=2))
    assert np.abs(dist.probabilities - np.array([0.25, 0.0, 0.0, 0.75])).max() < 1e-12


def test_field_example_circuit_matches_analytic():
    u = field_unitary(np.pi / 3)
    psi = np.array([1.0, 0.0], dtype=complex)
    dist, results = measure_which_unitary(u, pauli_basis(dim=2), psi)
    assert np.abs(dist.probabilities - np.array([0.25, 0.0, 0.0, 0.75])).max() < 1e-10
    outcomes = sorted(r.outcome for r in results)
    assert outcomes == [0, 3]


def test_prefaced_basis_gives_certainty():
    # expanding u against the family (u, u s_i) leaves no which-element doubt
    u = field_unitary(0.7)
    dist = which_unitary_distribution(u, pauli_basis(u0=u, dim=2))
    assert abs(dist.probabilities[0] - 1.0) < 1e-12
    assert dist.probabilities[1:].max() < 1e-12


def test_hermitian_combination_splits_evenly():
    u = (X + Z) / np.sqrt(2)
    dist = which_unitary_distribution(u, pauli_basis(dim=2))
    assert np.abs(dist.probabilities - np.array([0.0, 0.5, 0.0, 0.5])).max() < 1e-12


def test_circuit_probabilities_match_expansion():
    rng = np.random.default_rng(21)
    b = pauli_basis(dim=2)
    psi = np.array([1.0, 0.0], dtype=complex)
    for _ in range(25):
        u = random_unitary(2, rng)
        expect = np.abs(expand(u, b).coeffs) ** 2
        dist, _ = measure_which_unitary(u, b, psi)
        assert np.abs(dist.probabilities - expect).max() < 1e-10


def test_distribution_is_state_independent():
    rng = np.random.default_rng(22)
    u = random_unitary(2, rng)
    b = pauli_basis(dim=2)
    ref, _ = measure_which_unitary(u, b, np.array([1.0, 0.0]))
    for _ in range(15):
        psi = random_state(2, rng)
        dist, _ = measure_which_unitary(u, b, psi)
        assert np.abs(dist.probabilities - ref.probabilities).max() < 1e-10


def test_entangled_bystander_rides_along():
    """Measuring the system half of a Bell pair keeps its entanglement."""
    rng = np.random.default_rng(23)
    u = random_unitary(2, rng)
    phi = max_entangled(2)
    dist, results = measure_which_unitary(u, pauli_basis(dim=2), phi)
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12
    for r in results:
        ent = entanglement_entropy(r.collapsed.amplitudes, (2, 2))
        assert abs(ent - 1.0) < 1e-9


def test_collapsed_state_is_basis_element_applied():
    u = field_unitary(np.pi / 3)
    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    _, results = measure_which_unitary(u, pauli_basis(dim=2), psi)
    b = pauli_basis(dim=2)
    for r in results:
        target = b.elements[r.outcome] @ psi
        target /= np.linalg.norm(target)
        overlap = abs(np.vdot(target, r.collapsed.amplitudes))
        assert abs(overlap - 1.0) < 1e-10


def test_shots_need_a_seed():
    u = field_unitary(0.3)
    with pytest.raises(ValueError):
        measure_which_unitary(u, pauli_basis(dim=2), np.array([1.0, 0.0]),
                              shots=10)


def test_sampled_counts_are_reproducible():
    u = field_unitary(np.pi / 3)
    psi = np.array([1.0, 0.0], dtype=complex)
    d1, _ = measure_which_unitary(u, pauli_basis(dim=2), psi, shots=500, seed=7)
    d2, _ = measure_which_unitary(u, pauli_basis(dim=2), psi, shots=500, seed=7)
    assert d1.shots == 500
    assert np.array_equal(d1.counts, d2.counts)
    assert np.array_equal(d1.shot_outcomes, d2.shot_outcomes)
    # only the identity and Z outcomes carry weight for this unitary
    assert d1.counts[1] == 0 and d1.counts[2] == 0


def test_empirical_frequencies_track_probabilities():
    u = field_unitary(np.pi / 3)
    psi = np.array([1.0, 0.0], dtype=complex)
    shots = 20000
    dist, _ = measure_which_unitary(u, pauli_basis(dim=2), psi,
                                    shots=shots, seed=19)
    freq = dist.counts / shots
    sigma = np.sqrt(dist.probabilities * (1 - dist.probabilities) / shots)
    assert np.all(np.abs(freq - dist.probabilities) <= 5 * sigma + 1e-12)


def test_two_qubit_pauli_circuit():
    rng = np.random.default_rng(24)
    b = pauli_basis(dim=4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    u = random_unitary(4, rng)
    expect = np.abs(expand(u, b).coeffs) ** 2
    dist, _ = measure_which_unitary(u, b, psi)
    assert np.abs(dist.probabilities - expect).max() < 1e-10


def test_qudit_circuit_matches_expansion():
    rng = np.random.default_rng(25)
    b = weyl_basis(3)
    psi = np.zeros(3, dtype=complex)
    psi[0] = 1.0
    for _ in range(10):
        u = random_unitary(3, rng)
        expect = np.abs(expand(u, b).coeffs) ** 2
        dist, _ = measure_which_unitary_qudit(u, b, psi)
        assert np.abs(dist.probabilities - expect).max() < 1e-10


def test_qudit_basis_element_is_deterministic():
    b = weyl_basis(3)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    dist, results = measure_which_unitary_qudit(b.elements[5], b, psi)
    expect = np.zeros(9)
    expect[5] = 1.0
    assert np.abs(dist.probabilities - expect).max() < 1e-12
    assert len(results) == 1 and results[0].outcome == 5


def test_qudit_end_states_are_fourier_orthogonal():
    """Ancilla end states for distinct basis elements are orthogonal."""
    d = 3
    b = weyl_basis(d)
    psi = np.zeros(d, dtype=complex)
    psi[0] = 1.0
    ends = []
    for el in b.elements:
        joint = circuit_end_state(el, b, psi)
        # the joint state is (ancilla vector) x (el @ psi); contract out
        # the known system factor to recover the ancilla end state
        v = el @ psi
        v /= np.linalg.norm(v)
        anc = joint @ v.conj()
        anc /= np.linalg.norm(anc)
        assert np.abs(np.abs(anc) - 1.0 / d).max() < 1e-10
        ends.append(anc)
    g = np.array([[np.vdot(a, c) for c in ends] for a in ends])
    assert np.abs(g - np.eye(d * d)).max() < 1e-10


def test_measure_rejects_non_unitary():
    bad = np.diag([1.0, 0.5]).astype(complex)
    with pytest.raises(ValueError):
        measure_which_unitary(bad, pauli_basis(dim=2), np.array([1.0, 0.0]))
    bad3 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        measure_which_unitary_qudit(bad3, weyl_basis(3),
                                    np.array([1.0, 0.0, 0.0]))


def test_choi_side_backend_agrees():
    rng = np.random.default_rng(26)
    b = pauli_basis(dim=2)
    for _ in range(10):
        u = random_unitary(2, rng)
        expect = np.abs(expand(u, b).coeffs) ** 2
        dist, _ = measure_choi_side(u, b)
        assert np.abs(dist.probabilities - expect).max() < 1e-10


def test_choi_side_handles_rotated_basis():
    rng = np.random.default_rng(27)
    k = random_unitary(4, rng)
    rb = rotate_basis(pauli_basis(dim=2), k)
    u = random_unitary(2, rng)
    expect = np.abs(expand(u, rb).coeffs) ** 2
    dist, _ = measure_choi_side(u, rb)
    assert np.abs(dist.probabilities - expect).max() < 1e-10


def test_temporal_eigenvalue_qubit_cases():
    obs_z = TwoTimeObservable("z", 2)
    obs_x = TwoTimeObservable("x", 2)
    assert abs(temporal_eigenvalue(obs_z, I2) - 1.0) < 1e-12
    assert abs(temporal_eigenvalue(obs_z, X) + 1.0) < 1e-12
    assert abs(temporal_eigenvalue(obs_z, Y) + 1.0) < 1e-12
    assert abs(temporal_eigenvalue(obs_z, Z) - 1.0) < 1e-12
    assert abs(temporal_eigenvalue(obs_x, X) - 1.0) < 1e-12
    assert abs(temporal_eigenvalue(obs_x, Z) + 1.0) < 1e-12


def test_temporal_eigenvalue_rejects_superposition():
    with pytest.raises(NotAnEigenoperator):
        temporal_eigenvalue(TwoTimeObservable("z", 2), H)


def test_temporal_eigenvalue_weyl_phases():
    """Z-family reads off zeta^nu, X-family zeta^{-mu}, on Z^mu X^nu."""
    d = 3
    zeta = np.exp(2j * np.pi / d)
    b = weyl_basis(d)
    obs_z = TwoTimeObservable("z", d)
    obs_x = TwoTimeObservable("x", d)
    for mu in range(d):
        for nu in range(d):
            el = b.elements[mu * d + nu]
            assert abs(temporal_eigenvalue(obs_z, el) - zeta ** nu) < 1e-12
            assert abs(temporal_eigenvalue(obs_x, el) - zeta ** (-mu)) < 1e-12


def test_temporal_eigenvalue_with_reference():
    rng = np.random.default_rng(28)
    u0 = random_unitary(2, rng)
    obs = TwoTimeObservable("z", 2, u0=u0)
    assert abs(temporal_eigenvalue(obs, u0 @ X) + 1.0) < 1e-12


def test_commutator_norm_is_zero():
    # the two induced conjugations share the eigenoperator family
    # {u0 Z^mu X^nu}, so the matrix-level commutator vanishes identically
    assert observable_commutator_norm(
        TwoTimeObservable("z", 2), TwoTimeObservable("x", 2)) < 1e-12
    assert observable_commutator_norm(
        TwoTimeObservable("z", 3), TwoTimeObservable("x", 3)) < 1e-12
    rng = np.random.default_rng(29)
    u0 = random_unitary(2, rng)
    assert observable_commutator_norm(
        TwoTimeObservable("z", 2, u0=u0),
        TwoTimeObservable("x", 2, u0=u0)) < 1e-12


def test_generators_do_not_commute():
    obs_z = TwoTimeObservable("z", 2)
    obs_x = TwoTimeObservable("x", 2)
    gz, gx = obs_z.generator(), obs_x.generator()
    assert np.abs(gz @ gx - gx @ gz).max() > 1.0


def test_pure_state_norm_check():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0], dtype=complex))


def test_pure_state_owns_a_read_only_copy():
    """The state used to alias its input: a write to the input gave it
    norm 5."""
    v = np.array([1, 0], dtype=complex)
    s = PureState(v)
    v[0] = 5
    assert np.array_equal(s.amplitudes, [1, 0])
    assert not s.amplitudes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        s.amplitudes[0] = 5


def test_outcome_distribution_shots_property():
    d = OutcomeDistribution(("a", "b"), np.array([0.5, 0.5]))
    assert d.shots == 0


@pytest.mark.parametrize("probabilities, message", [
    ([0.5, 0.5, 7.0], "one probability per label"),
    ([1.0], "one probability per label"),
    ([[0.5, 0.5]], "one probability per label"),
    ([1.5, -0.5], "finite and non-negative"),
    ([np.nan, 1.0], "finite and non-negative"),
    ([np.inf, 0.0], "do not sum to 1"),
    ([0.5, 0.4], "do not sum to 1"),
])
def test_outcome_distribution_refuses_a_malformed_law(probabilities, message):
    with pytest.raises(ValueError, match=message):
        OutcomeDistribution(("a", "b"), probabilities)


@pytest.mark.parametrize("counts, shots, message", [
    ([1, 1, 0], [0, 1], "one count per label"),
    ([2, 1], [0, 1], "not to the 2 shot outcomes"),
    ([1, 1], None, "not to the 0 shot outcomes"),
])
def test_outcome_distribution_refuses_mismatched_counts(counts, shots,
                                                        message):
    with pytest.raises(ValueError, match=message):
        OutcomeDistribution(("a", "b"), [0.5, 0.5], counts=np.array(counts),
                            shot_outcomes=shots)


def test_outcome_distribution_accepts_consistent_counts():
    d = OutcomeDistribution(("a", "b"), [0.25, 0.75], counts=np.array([1, 2]),
                            shot_outcomes=np.array([1, 0, 1]))
    assert d.shots == 3


def test_two_time_observable_refuses_u0_of_another_dimension():
    with pytest.raises(ValueError, match="u0 has dim 3, expected 2"):
        TwoTimeObservable("z", 2, np.eye(3))
    assert TwoTimeObservable("z", 2, np.eye(2)).u0.shape == (2, 2)


def test_pure_state_rejects_nan():
    with pytest.raises(ValueError):
        PureState(np.array([np.nan, 0.0], dtype=complex))


def test_product_form_check_names_the_deviating_element():
    rng = np.random.default_rng(30)
    k = np.eye(16, dtype=complex)
    k[5:7, 5:7] = random_unitary(2, rng)
    rotated = rotate_basis(pauli_basis(dim=4), k)
    with pytest.raises(ValueError, match="element 5 deviates"):
        measure_which_unitary(np.eye(4), rotated, np.eye(4)[0])


def test_pauli_measurement_needs_a_power_of_two_dimension():
    with pytest.raises(ValueError, match="dimension 3 is not a power of two"):
        measure_which_unitary(np.eye(3), weyl_basis(3), np.eye(3)[0])


def test_d2_weyl_basis_is_refused_on_every_pauli_call():
    """(1, X, Z, iY) is not the Pauli ordering: the refusal is not
    memoised, and passing the Weyl check does not pass the Pauli one."""
    w, psi = weyl_basis(2), np.eye(2)[0]
    for _ in range(3):
        with pytest.raises(ValueError, match="element 2 deviates"):
            measure_which_unitary(H, w, psi)
    measure_which_unitary_qudit(H, w, psi)
    with pytest.raises(ValueError, match="element 2 deviates"):
        measure_which_unitary(H, w, psi)
    p = pauli_basis(dim=2)
    measure_which_unitary(H, p, psi)
    for _ in range(2):
        with pytest.raises(ValueError, match="element 2 deviates"):
            measure_which_unitary_qudit(H, p, psi)


def test_product_form_table_is_built_once_per_basis():
    rng = np.random.default_rng(31)
    pauli_calls = mock.patch.object(basis_module, "pauli_strings",
                                    wraps=basis_module.pauli_strings)
    weyl_calls = mock.patch.object(basis_module, "_weyl_products",
                                   wraps=basis_module._weyl_products)
    p, w = pauli_basis(random_unitary(8, rng)), weyl_basis(3)
    with pauli_calls as pauli_strings, weyl_calls as weyl_products:
        for _ in range(3):
            measure_which_unitary(random_unitary(8, rng), p, np.eye(8)[0])
            measure_which_unitary_qudit(random_unitary(3, rng), w,
                                        np.eye(3)[0])
            circuit_end_state(random_unitary(3, rng), w, np.eye(3)[0])
    assert pauli_strings.call_count == 1 and weyl_products.call_count == 1


def test_writing_the_callers_u0_changes_no_measurement():
    rng = np.random.default_rng(32)
    u0, u = random_unitary(4, rng), random_unitary(4, rng)
    psi = random_state(4, rng)
    b = pauli_basis(u0)
    kept = u0.copy()
    before, rb = measure_which_unitary(u, b, psi, shots=64, seed=7)
    u0[:] = np.eye(4)
    after, ra = measure_which_unitary(u, b, psi, shots=64, seed=7)
    assert np.abs(b.u0.matrix - kept).max() == 0.0
    assert np.array_equal(before.probabilities, after.probabilities)
    assert np.array_equal(before.shot_outcomes, after.shot_outcomes)
    assert [r.outcome for r in rb] == [r.outcome for r in ra]
    for x, y in zip(rb, ra):
        assert np.array_equal(x.collapsed.amplitudes, y.collapsed.amplitudes)


def _finish_by_rows(probs, rows, shots, seed):
    """The per-row loop _finish used to run, one norm per observed row:
    (outcome, collapsed state, exact probability) per result."""
    probs = np.asarray(probs)
    if shots:
        counts = np.bincount(_sample(probs, shots, seed), minlength=probs.size)
        observed = np.flatnonzero(counts)
    else:
        observed = np.flatnonzero(probs > 1e-14)
    return [(int(a), rows[a] / np.linalg.norm(rows[a]), float(probs[a]))
            for a in observed]


def _run_with_rows(run):
    """run() with the rows _finish received, and its results."""
    with mock.patch.object(measure_module, "_finish",
                           wraps=measure_module._finish) as finish:
        _, results = run()
    _, probs, rows, shots, seed = finish.call_args.args
    return _finish_by_rows(probs, rows, shots, seed), results


@settings(max_examples=12, deadline=None)
@given(backend=st.sampled_from(["pauli", "weyl", "choi"]),
       size=st.integers(1, 3), with_u0=st.booleans(),
       bystander=st.booleans(), shots=st.sampled_from([0, 64]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_branch_normalisation_matches_the_per_row_loop(
        backend, size, with_u0, bystander, shots, seed):
    rng = np.random.default_rng(seed)
    if backend == "weyl":
        d = (3, 5, 3)[size - 1]
        basis = weyl_basis(d, random_unitary(d, rng) if with_u0 else None)
        measure = measure_which_unitary_qudit
    else:
        d = 2 ** size
        basis = (pauli_basis(random_unitary(d, rng)) if with_u0
                 else pauli_basis(dim=d))
        measure = measure_which_unitary
    u = random_unitary(d, rng)
    psi = random_state(2 * d if bystander else d, rng)
    if backend == "choi":
        want, got = _run_with_rows(
            lambda: measure_choi_side(u, basis, shots=shots, seed=seed))
    else:
        want, got = _run_with_rows(
            lambda: measure(u, basis, psi, shots=shots, seed=seed))
    assert [r.outcome for r in got] == [a for a, _, _ in want]
    for r, (_, state, prob) in zip(got, want):
        assert np.abs(r.collapsed.amplitudes - state).max() <= 1e-15
        assert abs(r.exact_prob - prob) <= 1e-15


def test_branch_records_run_no_per_row_validator():
    """A call counts, not times: at n = 4 with 512 shots only the input
    state runs PureState.__post_init__, however many outcomes occur."""
    rng = np.random.default_rng(33)
    basis = pauli_basis(dim=16)
    for _ in range(3):
        u, psi = random_unitary(16, rng), random_state(16, rng)
        with mock.patch.object(PureState, "__post_init__", autospec=True,
                               side_effect=PureState.__post_init__) as post:
            _, results = measure_which_unitary(u, basis, psi, shots=512,
                                               seed=int(rng.integers(99)))
        assert len(results) > 50
        assert post.call_count == 1
        assert np.array_equal(post.call_args.args[0].amplitudes, psi)
        assert all(type(r.collapsed) is PureState for r in results)


def test_batch_states_fail_closed():
    rows = np.eye(4, dtype=complex)
    states = PureState._rows(rows)
    assert states == [PureState(row) for row in rows]
    assert all(np.shares_memory(s.amplitudes, rows) for s in states)
    assert not any(s.amplitudes.flags.writeable for s in states)
    for bad in (np.nan, 1 + 1e-9):
        rows = np.eye(4, dtype=complex)
        rows[2, 2] = bad
        with pytest.raises(ValueError, match="state norm is not 1"):
            PureState._rows(rows)


def test_a_nan_branch_row_rejects_the_call():
    rows = np.eye(4, dtype=complex)
    rows[1, 1] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="state norm is not 1"):
        measure_module._finish(tuple("abcd"), np.full(4, 0.25), rows, 0,
                               None)


def test_replacing_a_branch_record_still_validates():
    _, results = measure_which_unitary(random_unitary(4, 34),
                                       pauli_basis(dim=4),
                                       random_state(4, 35), shots=16, seed=3)
    r = results[0]
    with pytest.raises(ValueError, match="state norm is not 1"):
        dataclasses.replace(r.collapsed, amplitudes=np.ones(4))
    moved = dataclasses.replace(
        r, collapsed=PureState(np.roll(r.collapsed.amplitudes, 1)))
    assert moved.outcome == r.outcome and moved != r


# The per-site engine the circuit ran on before its couplings were composed
# into index tables, kept as the reference: one phase and one gather per
# site and time step, one kernel contraction per ancilla axis, and the
# Pauli labels picked out of the (mu, nu) pairs afterwards.


def _on_axes(table, ndim, axes):
    shape = [1] * ndim
    shape[axes[0]], shape[axes[1]] = table.shape
    return table.reshape(shape)


def _gather(t, a, k, index):
    """out[.., alpha, .., j, ..] = t[.., alpha, .., index[alpha, j], ..]"""
    sel = [slice(None)] * t.ndim
    sel[a] = np.arange(index.shape[0])[:, None]
    sel[k] = index
    return np.moveaxis(t[tuple(sel)], (0, 1), (a, k))


def _contract(t, axis, kernel):
    return np.moveaxis(np.tensordot(kernel, t, axes=(1, axis)), 0, axis)


def _echo_joint_by_sites(u, u0, site_dims, psi):
    qs = tuple(site_dims)
    n, dim = len(qs), int(np.prod(qs))
    anc = tuple(q for q in qs for _ in range(2))
    n_cfg = int(np.prod(anc))
    shape = anc + qs + (psi.size // dim,)
    t = np.broadcast_to(psi.reshape(shape[2 * n:]) / np.sqrt(n_cfg), shape)
    sites = []
    for j, q in enumerate(qs):
        w = np.diagonal(basis_module.clock_shift_powers(q)[0], axis1=1,
                        axis2=2)
        power, level = np.ogrid[:q, :q]
        sites.append((2 * j, 2 * n + j, w,
                      (level - power) % q, (level + power) % q))
    for a, k, w, shift, _ in sites:
        t = t * _on_axes(w, t.ndim, (a + 1, k))
        t = _gather(t, a, k, shift)
    t = (u0.conj().T @ u) @ t.reshape(n_cfg, dim, -1)
    t = t.reshape(shape)
    for a, k, w, _, unshift in sites:
        t = _gather(t, a, k, unshift)
        t = t * _on_axes(w.conj(), t.ndim, (a + 1, k))
    return (u0 @ t.reshape(n_cfg, dim, -1)).reshape(n_cfg, -1)


def _circuit_rows_by_sites(u, u0, site_dims, psi, pauli):
    joint = _echo_joint_by_sites(u, u0, site_dims, psi)
    t = joint.reshape(tuple(q for q in site_dims for _ in range(2)) + (-1,))
    for j, q in enumerate(site_dims):
        f = np.exp(2j * np.pi / q) ** np.outer(range(q), range(q))
        t = _contract(t, 2 * j, f.conj() / np.sqrt(q))
        t = _contract(t, 2 * j + 1, f / np.sqrt(q))
    if pauli:
        t = t.reshape((4,) * len(site_dims) + (-1,))
        t = t[np.ix_(*[[0, 1, 3, 2]] * len(site_dims))]
    return t.reshape(joint.shape)


@settings(max_examples=30, deadline=None)
@given(site_dims=st.sampled_from([(2,), (2, 2), (2, 2, 2), (3,), (5,), (7,)]),
       with_u0=st.booleans(), bystander=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_composed_engine_matches_the_per_site_engine(site_dims, with_u0,
                                                     bystander, seed):
    rng = np.random.default_rng(seed)
    d = int(np.prod(site_dims))
    pauli = len(site_dims) > 1 or d == 2
    u = random_unitary(d, rng)
    u0 = random_unitary(d, rng) if with_u0 else np.eye(d, dtype=complex)
    psi = random_state(2 * d if bystander else d, rng)
    want = _circuit_rows_by_sites(u, u0, site_dims, psi, pauli)
    got = measure_module._circuit_rows(u, u0, site_dims, psi, pauli)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13
    if len(site_dims) == 1:
        basis = weyl_basis(d, u0 if with_u0 else None)
        end = circuit_end_state(u, basis, psi)
        assert end.shape == (d * d, psi.size)
        assert np.abs(end - _echo_joint_by_sites(u, u0, site_dims, psi)
                      ).max() <= 1e-13


def test_engine_tables_are_built_once_and_refuse_writes():
    rng = np.random.default_rng(36)
    measure_module._couplings.cache_clear()
    measure_module._readout.cache_clear()
    p, w = pauli_basis(dim=8), weyl_basis(5)
    for _ in range(3):
        measure_which_unitary(random_unitary(8, rng), p, np.eye(8)[0])
        measure_which_unitary_qudit(random_unitary(5, rng), w, np.eye(5)[0])
        circuit_end_state(random_unitary(5, rng), w, np.eye(5)[0])
    couplings = measure_module._couplings.cache_info()
    readout = measure_module._readout.cache_info()
    assert (couplings.misses, couplings.currsize) == (2, 2)
    assert (readout.misses, readout.currsize) == (2, 2)
    tables = (*measure_module._couplings((2, 2, 2)),
              *measure_module._couplings((5,)),
              measure_module._readout(2, True),
              measure_module._readout(5, False))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
