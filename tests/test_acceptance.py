"""End-to-end acceptance run: ten numbered criteria, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
[PASS]/[FAIL] lines alongside the pytest verdicts.
"""
import math

import numpy as np

from evometry import (
    EvolutionSequence,
    KrausMap,
    PureState,
    TwoTimeObservable,
    circuit_end_state,
    clock_shift,
    concentrate,
    eavesdropper_marginal,
    entropy,
    equivalent,
    expand,
    induced_local_map,
    interaction_entanglement,
    kraus_rotation,
    measure_which_unitary,
    measure_which_unitary_qudit,
    named_channel,
    operator_schmidt,
    pauli_basis,
    retrieval_statistics,
    superdense_send,
    typical_compress,
    weyl_basis,
    which_unitary_distribution,
)
from evometry.gates import CNOT, H, I2, PAULIS, SWAP, X, Z
from evometry.linalg import (
    entanglement_entropy,
    max_entangled,
    random_state,
    random_unitary,
)

ZERO = np.array([1.0, 0.0], dtype=complex)


def _report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {label}")
    assert ok, f"criterion {num} ({label}) {detail}"


def test_criterion_01_probability_law():
    """Circuit outcome probabilities equal |C_a|^2; sampling agrees."""
    rng = np.random.default_rng(101)
    b = pauli_basis(dim=2)
    worst = 0.0
    for _ in range(100):
        u = random_unitary(2, rng)
        expect = np.abs(expand(u, b).coeffs) ** 2
        dist, _ = measure_which_unitary(u, b, ZERO)
        worst = max(worst, float(np.abs(dist.probabilities - expect).max()))
    shots = 100_000
    u = random_unitary(2, np.random.default_rng(102))
    dist, _ = measure_which_unitary(u, b, ZERO, shots=shots, seed=103)
    freq = dist.counts / shots
    sigma = np.sqrt(dist.probabilities * (1 - dist.probabilities) / shots)
    sampled_ok = bool(np.all(np.abs(freq - dist.probabilities)
                             <= 5 * sigma + 1e-12))
    ok = worst < 1e-10 and sampled_ok
    _report(1, "two-time circuit obeys the Born rule on expansions", ok,
            f"worst deviation {worst:.3e}, 5-sigma ok {sampled_ok}")


def test_criterion_02_field_example():
    u = np.cos(np.pi / 3) * I2 - 1j * np.sin(np.pi / 3) * Z
    dist = which_unitary_distribution(u, pauli_basis(dim=2))
    dev = np.abs(dist.probabilities - np.array([0.25, 0.0, 0.0, 0.75])).max()
    prefaced = which_unitary_distribution(u, pauli_basis(u0=u, dim=2))
    dev_pref = abs(prefaced.probabilities[0] - 1.0)
    ok = dev < 1e-12 and dev_pref < 1e-12
    _report(2, "field example splits 1/4 : 3/4 and prefacing is certain", ok,
            f"deviations {dev:.3e}, {dev_pref:.3e}")


def test_criterion_03_state_independence():
    rng = np.random.default_rng(105)
    b = pauli_basis(dim=2)
    u = random_unitary(2, rng)
    ref, _ = measure_which_unitary(u, b, ZERO)
    worst = 0.0
    for _ in range(50):
        psi = random_state(2, rng)
        dist, _ = measure_which_unitary(u, b, psi)
        worst = max(worst, float(np.abs(dist.probabilities
                                        - ref.probabilities).max()))
    phi = max_entangled(2)
    _, results = measure_which_unitary(u, b, phi)
    ent_dev = max(
        abs(entanglement_entropy(r.collapsed.amplitudes, (2, 2)) - 1.0)
        for r in results
    )
    ok = worst < 1e-10 and ent_dev < 1e-9
    _report(3, "distribution is state independent, entanglement kept", ok,
            f"distribution spread {worst:.3e}, entropy deviation {ent_dev:.3e}")


def test_criterion_04_qudit_construction():
    d = 3
    z, x = clock_shift(d)
    zeta = np.exp(2j * np.pi / d)
    rel = max(
        np.abs(z.matrix @ x.matrix - zeta * x.matrix @ z.matrix).max(),
        np.abs(np.linalg.matrix_power(z.matrix, d) - np.eye(d)).max(),
        np.abs(np.linalg.matrix_power(x.matrix, d) - np.eye(d)).max(),
    )
    b = weyl_basis(d)
    psi = np.zeros(d, dtype=complex)
    psi[0] = 1.0
    u = random_unitary(d, np.random.default_rng(106))
    expect = np.abs(expand(u, b).coeffs) ** 2
    dist, _ = measure_which_unitary_qudit(u, b, psi)
    born = np.abs(dist.probabilities - expect).max()
    ends = []
    for el in b.elements:
        joint = circuit_end_state(el, b, psi)
        v = el @ psi
        v /= np.linalg.norm(v)
        anc = joint @ v.conj()
        ends.append(anc / np.linalg.norm(anc))
    g = np.array([[np.vdot(p, q) for q in ends] for p in ends])
    fourier = np.abs(g - np.eye(d * d)).max()
    ok = rel < 1e-12 and born < 1e-10 and fourier < 1e-10
    _report(4, "clock/shift algebra, Weyl outcomes, Fourier end states", ok,
            f"relations {rel:.3e}, born {born:.3e}, fourier {fourier:.3e}")


def test_criterion_05_map_entropy():
    e_unit = abs(entropy(named_channel("unitary:H")))
    e_deph = abs(entropy(named_channel("dephasing:0.5")) - 1.0)
    e_depo = abs(entropy(named_channel("depolarizing:1.0")) - 2.0)
    rng = np.random.default_rng(107)
    m = named_channel("depolarizing:0.35")
    s0 = entropy(m)
    rot_dev = 0.0
    for _ in range(50):
        r = random_unitary(len(m), rng)
        rot_dev = max(rot_dev, abs(entropy(kraus_rotation(m, r)) - s0))
    ok = max(e_unit, e_deph, e_depo) < 1e-12 and rot_dev < 1e-9
    _report(5, "map entropy hits 0/1/2 bits and ignores the representation",
            ok, f"reference {max(e_unit, e_deph, e_depo):.3e}, "
                f"rotation drift {rot_dev:.3e}")


def test_criterion_06_compression():
    h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    m = named_channel("dephasing:0.25")
    kept = []
    dist = []
    for n in (4, 8, 12, 16):
        t = typical_compress(m, n, 0.1)
        kept.append(t.kept_dim)
        dist.append(abs(t.rate - h))
    monotone = all(a > b for a, b in zip(dist, dist[1:]))
    uniform = typical_compress(named_channel("dephasing:0.5"), 10, 0.0)
    ok = (monotone and kept == [4, 28, 220, 6748]
          and uniform.kept_dim == 1024)
    _report(6, "typical-set rate approaches the entropy monotonically", ok,
            f"kept {kept}, distances {[f'{d:.4f}' for d in dist]}, "
            f"uniform kept {uniform.kept_dim}")


def test_criterion_07_probabilistic_retrieval():
    trials = 100_000
    s = np.diag([1.0, 1j])
    phase_map = KrausMap((np.sqrt(0.5) * s, np.sqrt(0.5) * s.conj().T))
    psi = PureState(np.array([0.6, 0.8], dtype=complex))
    st_half = retrieval_statistics(0, phase_map, psi, trials, 108)
    u = random_unitary(2, np.random.default_rng(109))
    generic = KrausMap(tuple(u @ p / 2 for p in PAULIS))
    st_quarter = retrieval_statistics(0, generic, PureState(ZERO), trials, 110)
    ok = True
    for st, p in ((st_half, 0.5), (st_quarter, 0.25)):
        sigma = math.sqrt(p * (1 - p) / trials)
        ok = ok and abs(st["herald_probability"] - p) < 1e-12
        ok = ok and abs(st["empirical_rate"] - p) <= 5 * sigma
        ok = ok and abs(st["success_fidelity"] - 1.0) < 1e-9
    _report(7, "heralded retrieval at 1/2 and 1/4 with exact output", ok,
            f"rates {st_half['empirical_rate']:.4f}, "
            f"{st_quarter['empirical_rate']:.4f}")


def test_criterion_08_superdense_coding():
    rng = np.random.default_rng(111)
    b = pauli_basis(dim=2)
    eav = 0.0
    for sigma in PAULIS:
        eav = max(eav, float(np.abs(
            eavesdropper_marginal(sigma) - np.eye(2) / 2).max()))
    for _ in range(10):
        eav = max(eav, float(np.abs(
            eavesdropper_marginal(random_unitary(2, rng))
            - np.eye(2) / 2).max()))
    classical = all(
        abs(superdense_send(sigma, b).probabilities[a] - 1.0) < 1e-12
        for a, sigma in enumerate(PAULIS)
    )
    bits = math.log2(len(b)) / 2
    ok = eav < 1e-12 and classical and bits == 1.0
    _report(8, "dense coding: 2 bits per qubit, eavesdropper blind", ok,
            f"marginal deviation {eav:.3e}, deterministic {classical}")


def test_criterion_09_interaction_entanglement():
    maxent = (np.kron(I2, I2) + 1j * np.kron(X, X)) / np.sqrt(2)
    cases = (
        (CNOT, 1.0),
        (SWAP, 2.0),
        (np.kron(H, X), 0.0),
        (maxent, 1.0),
    )
    dev = max(abs(interaction_entanglement(u) - want) for u, want in cases)
    induced = max(
        abs(entropy(induced_local_map(u, other_state="maximally_mixed"))
            - interaction_entanglement(u))
        for u, _ in cases
    )
    recon = max(
        float(np.abs(operator_schmidt(u).reconstruct() - u).max())
        for u, _ in cases
    )
    ok = dev < 1e-9 and induced < 1e-9 and recon < 1e-9
    _report(9, "operator Schmidt entropy and induced-map entropy agree", ok,
            f"value deviation {dev:.3e}, induced {induced:.3e}")


def test_criterion_10_concentration():
    alpha = math.sqrt(0.75)
    sector = max(
        concentrate(n, alpha, mode="exact-matrix").sector_deviation
        for n in (1, 2, 3, 4)
    )
    h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    d16, d32 = concentrate(16, alpha), concentrate(32, alpha)
    r16 = math.log2(d16.expected_term_count()) / 16
    r32 = math.log2(d32.expected_term_count()) / 32
    y16 = d16.yield_bits() / 16
    y32 = d32.yield_bits() / 32
    ok = (sector < 1e-10
          and abs(r16 - h) / h <= 0.15
          and abs(r32 - h) < abs(r16 - h)
          and y32 > y16)
    _report(10, "sector law exact, block-size rate approaches the entropy",
            ok, f"sector {sector:.3e}, rates {r16:.4f} -> {r32:.4f} "
                f"vs {h:.4f}")
