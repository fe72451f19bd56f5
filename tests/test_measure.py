import dataclasses
import math
import os
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import basis as basis_module
from evometry import gates
from evometry import measure as measure_module
from evometry import superdense as superdense_module
from evometry import (
    ExpansionCoefficients,
    NotAnEigenoperator,
    OperatorBasis,
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
    superdense_send,
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


@pytest.mark.parametrize("d", [2, 3, 5])
def test_induced_maps_have_the_basis_as_eigenoperators(d):
    """The matrix of each observable's map sends every Z^mu X^nu to its
    temporal_eigenvalue times itself. It used to build U -> g U g, whose
    residual here has a largest entry of 1.73 at d = 3 and 1.90 at
    d = 5."""
    rng = np.random.default_rng(d)
    u0 = random_unitary(d, rng)
    for ref in (None, u0):
        for family in ("z", "x"):
            obs = TwoTimeObservable(family, d, u0=ref)
            lmap = measure_module._induced_map(obs)
            for el in weyl_basis(d, ref).elements:
                lam = temporal_eigenvalue(obs, el)
                resid = np.abs(lmap @ el.ravel() - lam * el.ravel()).max()
                assert resid < 1e-14


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
    """The constructor and the circuits' _finish, which fills the record
    with and without draws, refuse a law by one check."""
    with pytest.raises(ValueError, match=message):
        OutcomeDistribution(("a", "b"), probabilities)
    for shots in (0, 8):
        with pytest.raises(ValueError, match=message):
            measure_module._finish(("a", "b"), np.array(probabilities),
                                   np.eye(2, dtype=complex).__getitem__,
                                   shots, 1)


@pytest.mark.parametrize("shots", [
    [7, 9], [0, 2], [-1, 0], [0.0, 1.0], [], [True, False], [[0, 1]], 1,
])
def test_outcome_distribution_refuses_shots_that_are_not_labels(shots):
    """Counts are read from the shot outcomes, so the outcomes are the one
    input to check: each must index a label."""
    with pytest.raises(ValueError, match="indices of the 2 labels"):
        OutcomeDistribution(("a", "b"), [0.5, 0.5], shot_outcomes=shots)


def test_outcome_distribution_counts_its_shot_outcomes():
    d = OutcomeDistribution(("a", "b"), [0.25, 0.75],
                            shot_outcomes=np.array([1, 0, 1]))
    assert d.shots == 3 and np.array_equal(d.counts, [1, 2])
    empty = OutcomeDistribution(("a", "b"), [0.25, 0.75],
                                shot_outcomes=np.zeros(0, dtype=int))
    assert empty.shots == 0 and np.array_equal(empty.counts, [0, 0])
    assert OutcomeDistribution(("a", "b"), [0.25, 0.75]).counts is None
    with pytest.raises(TypeError):
        OutcomeDistribution(("a", "b"), [0.25, 0.75], counts=[1, 2])


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


def test_either_entry_reads_either_family():
    """(1, X, Z, iY) is not the Pauli ordering: each entry reads each
    basis out in that basis's own label order, at d = 2 and d = 3."""
    for b in (pauli_basis(dim=2), weyl_basis(2), weyl_basis(3)):
        u = H if b.dim == 2 else random_unitary(3, 37)
        psi = np.eye(b.dim)[0]
        want = expand(u, b).probabilities()
        for measure in (measure_which_unitary, measure_which_unitary_qudit):
            dist, _ = measure(u, b, psi)
            assert dist.labels == b.labels
            assert np.abs(dist.probabilities - want).max() <= 1e-15
    assert not np.allclose(expand(H, pauli_basis(dim=2)).probabilities(),
                           expand(H, weyl_basis(2)).probabilities())


def test_a_basis_of_neither_form_is_refused_on_every_call():
    """The refusal names the element and is not memoised: a Weyl-sized
    basis is refused by the Weyl check, on every entry and every call."""
    k = np.eye(9, dtype=complex)
    k[1:3, 1:3] = random_unitary(2, 38)
    rotated, psi = rotate_basis(weyl_basis(3), k), np.eye(3)[0]
    for _ in range(2):
        for call in (measure_which_unitary, measure_which_unitary_qudit,
                     circuit_end_state):
            with pytest.raises(ValueError, match="element 1 deviates"):
                call(np.eye(3), rotated, psi)


def test_a_one_level_basis_is_refused_by_its_dimension():
    """The default basis of one level is a basis, but no circuit reads it
    out; the refusal names its dimension on every entry and call."""
    _, trivial = basis_module._default_basis(1)
    for _ in range(2):
        for call in (measure_which_unitary, measure_which_unitary_qudit,
                     circuit_end_state):
            with pytest.raises(ValueError, match="dimension >= 2, got "
                                                 "dimension 1"):
                call(np.eye(1), trivial, np.ones(1))


def test_product_form_table_is_built_once_per_basis():
    """A builder's basis carries its product form and builds no table;
    the same elements built directly build one, on the first call."""
    rng = np.random.default_rng(31)
    pauli_calls = mock.patch.object(basis_module, "pauli_strings",
                                    wraps=basis_module.pauli_strings)
    weyl_calls = mock.patch.object(basis_module, "_weyl_products",
                                   wraps=basis_module._weyl_products)
    built = pauli_basis(random_unitary(8, rng)), weyl_basis(3)
    direct = tuple(OperatorBasis(b.elements, b.labels) for b in built)
    for (p, w), tables in ((built, 0), (direct, 1)):
        with pauli_calls as pauli_strings, weyl_calls as weyl_products:
            for _ in range(3):
                measure_which_unitary(random_unitary(8, rng), p,
                                      np.eye(8)[0])
                measure_which_unitary_qudit(random_unitary(3, rng), w,
                                            np.eye(3)[0])
                circuit_end_state(random_unitary(3, rng), w, np.eye(3)[0])
        assert pauli_strings.call_count == tables
        assert weyl_products.call_count == tables


def _builder_bases():
    for n in range(1, 5):
        yield "pauli", 2 ** n
    for d in range(3, 12):
        yield "weyl", d


@pytest.mark.parametrize("kind,d", list(_builder_bases()))
def test_the_readouts_build_no_stack(kind, d):
    """The exact law, both circuit entries (with and without a
    bystander), the end state and dense coding read a builder basis
    through its structure: it never builds its d^2 x d x d elements."""
    rng = np.random.default_rng(d)
    for u0 in (None, random_unitary(d, rng)):
        basis = pauli_basis(u0, dim=d) if kind == "pauli" else weyl_basis(d, u0)
        u = random_unitary(d, rng)
        which_unitary_distribution(u, basis)
        for b in (1, 2):
            psi = random_state(b * d, rng)
            measure_which_unitary(u, basis, psi, shots=16, seed=1)
            measure_which_unitary_qudit(u, basis, psi, shots=16, seed=2)
            circuit_end_state(u, basis, psi)
        superdense_send(u, basis, shots=16, seed=3)
        assert (basis.dim, len(basis)) == (d, d * d)
        assert "elements" not in vars(basis)


_FOOTPRINT_RUN = """
import resource, sys
import numpy as np
from evometry import (measure_which_unitary, pauli_basis, superdense_send,
                      which_unitary_distribution)
from evometry.linalg import random_state, random_unitary
n = int(sys.argv[1])
rng = np.random.default_rng(n)
u0, u, psi = (random_unitary(2 ** n, rng), random_unitary(2 ** n, rng),
              random_state(2 ** n, rng))
basis = pauli_basis(u0)
dist, _ = measure_which_unitary(u, basis, psi)
sent = superdense_send(u, basis, shots=64, seed=1)
law = which_unitary_distribution(u, basis).probabilities
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
      np.abs(law - dist.probabilities).max(),
      np.abs(law - sent.probabilities).max())
"""


def _footprint(n):
    """Peak RSS in MB of pauli_basis(u0), the circuit, dense coding and
    the exact law at n qubits in a fresh process, and how far the
    circuit's and dense coding's laws lie from the exact one."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT_RUN, str(n)],
                         env=env, cwd=Path(__file__).resolve().parent.parent,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    return (float(x) for x in out.split())


def test_six_qubits_run_end_to_end_in_a_small_footprint():
    """At n = 6: peak RSS under 200 MB (the stacks alone would be 268 MB
    each), and the law agrees with the circuit."""
    rss_mb, circuit, dense = _footprint(6)
    assert rss_mb < 200
    assert circuit <= 1e-13 and dense <= 1e-13


def test_seven_qubits_run_end_to_end_in_a_smaller_footprint_than_the_tables():
    """At n = 7: peak RSS under 216 MB, what the circuit alone peaked at
    while its coupling tables took 48 bytes per amplitude, and the law
    agrees with the circuit."""
    rss_mb, circuit, dense = _footprint(7)
    assert rss_mb < 216
    assert circuit <= 1e-13 and dense <= 1e-13


_QUBITS_RUN = """
import resource
import sys
import numpy as np
from evometry import (measure_which_unitary, pauli_basis,
                      which_unitary_distribution)
from evometry.linalg import random_state, random_unitary
n = int(sys.argv[1])
rng = np.random.default_rng(n)
u, psi = random_unitary(2 ** n, rng), random_state(2 ** n, rng)
basis = pauli_basis(dim=2 ** n)
dist, _ = measure_which_unitary(u, basis, psi, shots=64, seed=n)
law = which_unitary_distribution(u, basis).probabilities
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
      np.abs(law - dist.probabilities).max())
"""


def _qubits_run(n):
    """Peak RSS in MB of a 64-shot circuit call at n qubits and the exact
    law in a fresh process, and how far the circuit's law lies from the
    exact one."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _QUBITS_RUN, str(n)],
                         env=env, cwd=Path(__file__).resolve().parent.parent,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    return (float(x) for x in out.split())


def test_eight_qubits_run_the_circuit_under_the_footprint_target():
    """At n = 8 a 64-shot circuit call in a fresh process peaks under
    900 MB, and its law agrees with the exact one. With shots the call
    keeps only the observed rows (at shots = 0 every one of the 65536
    outcomes would be observed, 268 MB of rows)."""
    rss_mb, circuit = _qubits_run(8)
    assert rss_mb < 900
    assert circuit <= 1e-13


def test_ten_qubits_run_the_circuit_in_a_fresh_process():
    """At n = 10 a 64-shot circuit call in a fresh process peaks under
    400 MB, and its law agrees with the exact one: the circuit holds the
    64 observed rows and the D x D transform of u0^dag U, no D^3 array."""
    rss_mb, circuit = _qubits_run(10)
    assert rss_mb < 400
    assert circuit <= 1e-13


def test_writing_the_callers_u0_changes_no_measurement():
    rng = np.random.default_rng(32)
    u0, u = random_unitary(4, rng), random_unitary(4, rng)
    psi = random_state(4, rng)
    b = pauli_basis(u0)
    kept = u0.copy()
    before, rb = measure_which_unitary(u, b, psi, shots=64, seed=7)
    u0[:] = np.eye(4)
    after, ra = measure_which_unitary(u, b, psi, shots=64, seed=7)
    assert np.abs(b.elements[0] - kept).max() == 0.0
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
    """run() with every row that _finish could read, and its results."""
    with mock.patch.object(measure_module, "_finish",
                           wraps=measure_module._finish) as finish:
        _, results = run()
    _, probs, rows_of, shots, seed = finish.call_args.args
    rows = rows_of(np.arange(len(probs)))
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
    """A call counts, not times: at n = 4 with 512 shots no
    PureState.__post_init__ runs, however many outcomes occur, and
    reading every branch view runs it no more; the input state is
    checked once, in place, by linalg._state (bound in measure)."""
    rng = np.random.default_rng(33)
    basis = pauli_basis(dim=16)
    for _ in range(3):
        u, psi = random_unitary(16, rng), random_state(16, rng)
        with mock.patch.object(PureState, "__post_init__", autospec=True,
                               side_effect=PureState.__post_init__) as post, \
                mock.patch.object(measure_module, "_state",
                                  side_effect=measure_module._state) as check:
            _, results = measure_which_unitary(u, basis, psi, shots=512,
                                               seed=int(rng.integers(99)))
            views = list(results)
        assert len(views) == len(results) > 50
        assert post.call_count == 0
        assert check.call_count == 1 and check.call_args.args[0] is psi
        assert all(type(r.collapsed) is PureState for r in views)


def test_echo_calls_make_no_throwaway_records():
    """A dense-coding round reads its coefficients as an array and a
    circuit call checks its state in place: neither builds or fills an
    ExpansionCoefficients or a PureState."""
    rng = np.random.default_rng(35)
    for basis in (pauli_basis(dim=8), pauli_basis(random_unitary(4, rng)),
                  weyl_basis(3)):
        u = random_unitary(basis.dim, rng)
        psi = random_state(basis.dim, rng)
        fills = [mock.patch.object(module, "_filled",
                                   side_effect=module._filled)
                 for module in (basis_module, measure_module,
                                superdense_module)]
        checks = [mock.patch.object(cls, "__post_init__", autospec=True,
                                    side_effect=cls.__post_init__)
                  for cls in (ExpansionCoefficients, PureState)]
        with fills[0] as a, fills[1] as b, fills[2] as c, \
                checks[0] as coeffs_check, checks[1] as state_check:
            superdense_send(u, basis, shots=64, seed=1)
            measure_which_unitary(u, basis, psi, shots=64, seed=2)
        made = {call.args[0] for fill in (a, b, c)
                for call in fill.call_args_list}
        assert made.isdisjoint({ExpansionCoefficients, PureState})
        assert coeffs_check.call_count == state_check.call_count == 0


def test_echo_records_keep_no_view_of_the_callers_inputs():
    """Both calls check u and psi in place and keep neither: writing
    into the caller's arrays afterwards changes no returned record, with
    or without u0 and a bystander."""
    rng = np.random.default_rng(36)
    for basis in (pauli_basis(dim=4), pauli_basis(random_unitary(4, rng)),
                  weyl_basis(3)):
        for factor in (1, 2):
            d = basis.dim
            u, psi = random_unitary(d, rng), random_state(factor * d, rng)
            for shots in (0, 64):
                dist, branches = measure_which_unitary(u, basis, psi,
                                                       shots, seed=3)
                sent = superdense_send(u, basis, shots, seed=4)
                held = [dist.probabilities, dist.counts, dist.shot_outcomes,
                        branches.outcomes, branches.states,
                        branches.probabilities, sent.coefficients,
                        sent.probabilities, sent.eavesdropper_marginal,
                        sent.counts]
                kept = [None if a is None else a.copy() for a in held]
                u_was, psi_was = u.copy(), psi.copy()
                u[:], psi[:] = np.nan, np.nan
                for a, b in zip(held, kept):
                    assert a is b is None or np.array_equal(a, b)
                u[:], psi[:] = u_was, psi_was


def test_batch_states_fail_closed():
    """_finish takes the observed rows as one array and makes them unit:
    each state is a read-only view of its row, a row of norm 2 becomes
    its unit row, and a row that has none (NaN, infinite or zero)
    rejects the call."""
    rows = np.eye(4, dtype=complex)
    rows[1, 1] = 2.0
    _, results = measure_module._finish(tuple("abcd"), np.full(4, 0.25),
                                        rows.__getitem__, 0, None)
    states = [r.collapsed for r in results]
    assert states == [PureState(row) for row in np.eye(4)]
    assert not any(s.amplitudes.flags.writeable for s in states)
    assert all(s.amplitudes.base is states[0].amplitudes.base is not None
               for s in states)
    for bad in (np.nan, np.inf, 0.0):
        rows = np.eye(4, dtype=complex)
        rows[2, 2] = bad
        with np.errstate(invalid="ignore", divide="ignore"), \
                pytest.raises(ValueError, match="state norm is not 1"):
            measure_module._finish(tuple("abcd"), np.full(4, 0.25),
                                   rows.__getitem__, 0, None)


def test_a_nan_branch_row_rejects_the_call():
    rows = np.eye(4, dtype=complex)
    rows[1, 1] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="state norm is not 1"):
        measure_module._finish(tuple("abcd"), np.full(4, 0.25),
                               rows.__getitem__, 0, None)


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


def test_branches_are_one_sequence_record_of_arrays():
    """len, negative indices and slices give the views of the record's
    rows; the qudit entry returns the equal record."""
    rng = np.random.default_rng(37)
    basis = weyl_basis(3)
    u, psi = random_unitary(3, rng), random_state(6, rng)
    dist, results = measure_which_unitary(u, basis, psi, shots=64, seed=5)
    other, again = measure_which_unitary_qudit(u, basis, psi, shots=64,
                                               seed=5)
    assert isinstance(results, measure_module.CircuitBranches)
    assert isinstance(results, Sequence) and not isinstance(results, list)
    assert other == dist and again == results and again is not results
    k = len(results)
    assert k == len(results.outcomes) == len(np.flatnonzero(dist.counts))
    assert results.states.shape == (k, 6)
    assert np.array_equal(results.outcomes, np.flatnonzero(dist.counts))
    assert np.array_equal(results.probabilities,
                          dist.probabilities[results.outcomes])
    views = list(results)
    assert [results[i] for i in range(-k, 0)] == views
    assert results[-1] == views[-1] and results[0] == views[0]
    for r, a, row, p in zip(views, results.outcomes, results.states,
                            results.probabilities):
        assert type(r.outcome) is int and r.outcome == a
        assert type(r.exact_prob) is float and r.exact_prob == p
        assert np.array_equal(r.collapsed.amplitudes, row)
    tail = results[1:]
    assert type(tail) is measure_module.CircuitBranches
    assert list(tail) == views[1:] and list(results[::-1]) == views[::-1]
    assert results[k:] == measure_module.CircuitBranches(
        results.outcomes[:0], results.states[:0], results.probabilities[:0])
    for i in (k, -k - 1):
        with pytest.raises(IndexError):
            results[i]
    with pytest.raises(TypeError):
        results[1.0]
    assert views[0] in results and results.index(views[-1]) == k - 1
    _, fewer = measure_which_unitary(u, basis, psi, shots=64, seed=6)
    assert fewer != results


def test_branch_views_share_the_record_rows_read_only():
    rng = np.random.default_rng(38)
    for basis, d in ((pauli_basis(random_unitary(4, rng)), 4),
                     (weyl_basis(5), 5)):
        _, results = measure_which_unitary(random_unitary(d, rng), basis,
                                           random_state(d, rng), shots=32,
                                           seed=4)
        for name in ("outcomes", "states", "probabilities"):
            assert not getattr(results, name).flags.writeable
        for i, r in enumerate(results):
            for state in (r.collapsed, results[i].collapsed):
                a = state.amplitudes
                assert a.base is results.states.base
                assert np.shares_memory(a, results.states[i])
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0


def test_branch_record_checks_its_arrays():
    rows = np.eye(3, dtype=complex)
    good = measure_module.CircuitBranches([0, 2, 5], rows, [0.5, 0.25, 0.25])
    assert good.states is not rows and good.outcomes.dtype.kind == "i"
    assert good == measure_module.CircuitBranches(np.array([0, 2, 5]), rows,
                                                  np.array([0.5, 0.25, 0.25]))
    bad = [([0, 2], rows, [0.5, 0.25, 0.25], "need k outcome"),
           ([0.0, 2.0, 5.0], rows, [0.5, 0.25, 0.25], "need k outcome"),
           ([0, 2, 5], rows[0], [0.5, 0.25, 0.25], "need k outcome"),
           ([0, 2, 5], rows, [0.5, 0.25], "need k outcome"),
           ([0, 2, 5], rows, [0.5, np.nan, 0.25], "in \\[0, 1\\]"),
           ([0, 2, 5], rows, [1.5, 0.25, 0.25], "in \\[0, 1\\]"),
           ([0, 2, 5], rows, [np.inf, 0.25, 0.25], "in \\[0, 1\\]"),
           ([0, 2, 5], rows, [1 + 2e-9, 0.25, 0.25], "in \\[0, 1\\]"),
           ([0, 2, 5], 2 * rows, [0.5, 0.25, 0.25], "state norm is not 1")]
    for outcomes, states, probs, match in bad:
        with pytest.raises(ValueError, match=match):
            measure_module.CircuitBranches(outcomes, states, probs)
    with pytest.raises(ValueError, match="state norm is not 1"):
        dataclasses.replace(good, states=np.roll(2 * rows, 1, axis=0))
    # a probability rounded past 1 within PROBABILITY_ATOL is kept
    assert measure_module.CircuitBranches([0], rows[:1], [1 + 1e-12])


@pytest.mark.parametrize("basis, element", [
    (pauli_basis(dim=2), X),
    (pauli_basis(dim=4), np.kron(X, Z)),
    (weyl_basis(3), weyl_basis(3).elements[4]),
])
def test_branch_probability_rounded_past_one_is_kept(basis, element):
    """A unitary within UNITARY_ATOL of one basis element: the circuit
    and the channel-state picture give that one branch, with a
    probability a little above 1, and do not refuse it."""
    u = (1 + 3e-11) * element
    psi = np.eye(len(element))[0]
    for dist, results in (measure_which_unitary(u, basis, psi),
                          measure_choi_side(u, basis)):
        (branch,) = results
        assert 1.0 < branch.exact_prob <= 1 + measure_module.PROBABILITY_ATOL
        assert dist.probabilities[branch.outcome] == branch.exact_prob


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("bystander", [1, 2])
def test_a_reference_unitary_within_its_check_gives_unit_states(d, bystander):
    """A builder accepts a u0 whose norm is off by 1e-11, inside the
    unitarity check but past the 1e-12 state norm check; each collapsed
    state is still a unit row (its own norm after u0), and the law is
    the one of the same u0 unscaled within the unitarity tolerance."""
    rng = np.random.default_rng(d)
    v, u = random_unitary(d, rng), random_unitary(d, rng)
    psi = random_state(bystander * d, rng)

    def build(u0):
        return pauli_basis(u0) if d & (d - 1) == 0 else weyl_basis(d, u0)

    dist, branches = measure_which_unitary(u, build(v * (1 + 1e-11)), psi)
    want, _ = measure_which_unitary(u, build(v), psi)
    assert np.abs(dist.probabilities - want.probabilities).max() <= 1e-10
    assert np.abs(np.linalg.norm(branches.states, axis=1) - 1).max() <= 1e-15


@settings(max_examples=20, deadline=None)
@given(site_dims=st.sampled_from([(2,), (2, 2), (2, 2, 2), (3,), (5,)]),
       bystander=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_identity_reference_skips_its_products_to_the_last_bit(
        site_dims, bystander, seed):
    """u0=None (a builder basis without u0) gives the rows of the
    explicit identity reference bit for bit: x * 1 + y * 0 is exact."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(site_dims))
    pauli = len(site_dims) > 1 or d == 2
    u, psi = random_unitary(d, rng), random_state(2 * d if bystander else d,
                                                  rng)
    everything = np.arange(d * d)
    want, want_rows = measure_module._circuit_rows(
        u, np.eye(d, dtype=complex), site_dims, psi, pauli)
    got, got_rows = measure_module._circuit_rows(u, None, site_dims, psi,
                                                 pauli)
    assert np.array_equal(got, want)
    assert np.array_equal(got_rows(everything), want_rows(everything))
    basis = pauli_basis(dim=d) if pauli else weyl_basis(d)
    assert basis._product_form == (site_dims, pauli, None)


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


def _site_tuples(most=12):
    """Every tuple of site dims >= 2 whose product is at most most."""
    tuples, grow = [], [()]
    while grow:
        grow = [t + (q,) for t in grow for q in range(2, most + 1)
                if math.prod(t + (q,)) <= most]
        tuples += grow
    return tuples


@settings(max_examples=60, deadline=None)
@given(site_dims=st.sampled_from(_site_tuples()), pauli=st.booleans(),
       with_u0=st.booleans(), bystander=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_composed_engine_matches_the_per_site_engine(site_dims, pauli,
                                                     with_u0, bystander,
                                                     seed):
    """Over every site tuple of product <= 12, mixed dimensions included,
    with and without u0 and with a bystander of 1 to 3 levels: the law
    and the rows match the per-site engine's, and so does the end state
    (read through a stand-in basis carrying the product form, since no
    builder makes mixed sites yet)."""
    rng = np.random.default_rng(seed)
    d = math.prod(site_dims)
    pauli = pauli and set(site_dims) == {2}
    u = random_unitary(d, rng)
    u0 = random_unitary(d, rng) if with_u0 else np.eye(d, dtype=complex)
    psi = random_state(bystander * d, rng)
    want = _circuit_rows_by_sites(u, u0, site_dims, psi, pauli)
    weights, rows_of = measure_module._circuit_rows(
        u, u0 if with_u0 else None, site_dims, psi, pauli)
    got = rows_of(np.arange(d * d))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13
    assert np.abs(weights - np.linalg.norm(want, axis=1) ** 2).max() <= 1e-13
    basis = SimpleNamespace(dim=d, _product_form=(
        site_dims, pauli, u0 if with_u0 else None))
    end = circuit_end_state(u, basis, psi)
    assert end.shape == (d * d, psi.size)
    assert np.abs(end - _echo_joint_by_sites(u, u0, site_dims, psi)
                  ).max() <= 1e-13


@pytest.mark.parametrize("site_dims", [(2,) * 5, (3, 3, 2), (2, 9), (17,)])
def test_blocks_read_in_several_runs_match_the_per_site_engine(site_dims):
    """Past READ_ROWS levels a block is read in several runs, or a large
    site alone; the rows still match the per-site engine's."""
    rng = np.random.default_rng(len(site_dims))
    d = math.prod(site_dims)
    runs, _ = measure_module._readout(site_dims, False)
    assert [r for _, r, _, _ in runs] == {
        5: [16, 2], 3: [9, 2], 2: [2, 9], 1: [17]}[len(site_dims)]
    u, u0 = random_unitary(d, rng), random_unitary(d, rng)
    psi = random_state(2 * d, rng)
    _, rows_of = measure_module._circuit_rows(u, u0, site_dims, psi)
    want = _circuit_rows_by_sites(u, u0, site_dims, psi, False)
    assert np.abs(rows_of(np.arange(d * d)) - want).max() <= 1e-13


def test_engine_tables_are_built_once_and_refuse_writes():
    """One build of the index tables, of the readout kernels and of the
    label order per site tuple, however many calls read them, the
    circuit's and the family transform's alike (expand, the exact law,
    dense coding and a builder's residual); the one coupling table is
    D x D, so none grows with the joint array, and every table and
    kernel is read-only and refuses setflags(write=True)."""
    rng = np.random.default_rng(36)
    caches = (measure_module._couplings, measure_module._readout,
              basis_module._trace_order)
    for cache in caches:
        cache.cache_clear()
    p, w = pauli_basis(dim=8), weyl_basis(5)
    for _ in range(3):
        measure_which_unitary(random_unitary(8, rng), p, np.eye(8)[0])
        measure_which_unitary_qudit(random_unitary(5, rng), w, np.eye(5)[0])
        circuit_end_state(random_unitary(5, rng), w, np.eye(5)[0])
        for basis in (p, w):
            u = random_unitary(basis.dim, rng)
            expand(u, basis)
            which_unitary_distribution(u, basis)
            superdense_send(u, basis)
        pauli_basis(random_unitary(8, rng), dim=8)
    for cache in caches:
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
    tables = [measure_module._couplings((2, 2, 2)),
              measure_module._couplings((5,))]
    assert [t.shape for t in tables] == [(8, 8), (5, 5)]
    for runs, order in (measure_module._readout((2, 2, 2), True),
                        measure_module._readout((5,), False)):
        tables += [order] + [k for run in runs for k in run[2:]]
    tables += [*basis_module._trace_order((2, 2, 2), True),
               *basis_module._trace_order((5,), False)[:2]]
    assert basis_module._trace_order((5,), False)[2] is None
    assert len(tables) == 2 + 2 + 2 * 2 + 5
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0
        with pytest.raises(ValueError, match="WRITEABLE"):
            table.setflags(write=True)


@pytest.mark.parametrize("name", sorted(gates.GATES))
def test_the_circuit_law_is_the_exact_law_bit_for_bit_on_named_gates(name):
    """On every named gate, from a basis state, over its Pauli basis and
    the qubit Weyl basis: the circuit's law and the exact law |C_a|^2
    are equal to the last bit, since both read the same unnormalised
    +-1 kernels and each of the gates' coefficients is real or
    imaginary."""
    u = gates.GATES[name]
    d = len(u)
    bases = [pauli_basis(dim=d)] + [weyl_basis(2)] * (d == 2)
    for basis in bases:
        for psi in np.eye(d):
            law = measure_which_unitary(u, basis, psi)[0].probabilities
            exact = which_unitary_distribution(u, basis).probabilities
            assert np.array_equal(law, exact)
