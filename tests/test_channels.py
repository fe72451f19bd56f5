import numpy as np
import pytest

from evometry import (
    ChoiState,
    KrausMap,
    StinespringDilation,
    canonical_kraus,
    choi,
    entropy,
    equivalent,
    kraus_from_ancilla_basis,
    kraus_rotation,
    named_channel,
    stinespring,
)
from evometry.gates import H, I2, X, Y, Z
from evometry.linalg import dag, random_unitary


def random_channel(d, a, rng):
    dil = StinespringDilation(random_unitary(d * a, rng), d, a)
    return kraus_from_ancilla_basis(dil)


def test_kraus_map_completeness_enforced():
    with pytest.raises(ValueError):
        KrausMap((np.sqrt(0.5) * I2,))
    KrausMap((np.sqrt(0.5) * I2, np.sqrt(0.5) * Z))


def test_named_dephasing_operators():
    m = named_channel("dephasing:0.5")
    assert len(m) == 2
    assert np.abs(m.operators[0] - np.sqrt(0.5) * I2).max() < 1e-12
    assert np.abs(m.operators[1] - np.sqrt(0.5) * Z).max() < 1e-12


def test_named_channel_rejects_bad_probability():
    with pytest.raises(ValueError):
        named_channel("dephasing:1.5")
    with pytest.raises(ValueError):
        named_channel("nosuch:0.5")


def test_apply_dephasing_kills_coherences():
    m = named_channel("dephasing:0.5")
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = m.apply(rho)
    assert abs(out[0, 1]) < 1e-12
    assert abs(out[0, 0] - 0.5) < 1e-12


def test_choi_of_unitary_is_pure():
    m = named_channel("unitary:H")
    c = choi(m)
    w = np.linalg.eigvalsh(c.matrix)
    assert abs(w[-1] - 1.0) < 1e-10
    assert np.abs(w[:-1]).max() < 1e-10


def test_choi_validation_rejects_junk():
    with pytest.raises(ValueError):
        ChoiState(2, np.eye(4, dtype=complex))  # trace 4, not a channel state
    bad = np.diag([1.0, 0.0, 0.0, -0.5]).astype(complex) / 0.5
    with pytest.raises(ValueError):
        ChoiState(2, bad)


def test_canonical_kraus_probabilities_dephasing():
    can = canonical_kraus(named_channel("dephasing:0.3"))
    assert np.abs(np.asarray(can.probabilities) - np.array([0.7, 0.3])).max() < 1e-10


def test_canonical_kraus_orthogonality():
    """tr(K_mu^dag K_nu) = d p_mu delta_munu for the canonical set."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = random_channel(2, 4, rng)
        can = canonical_kraus(m)
        d = m.dim
        ps = np.asarray(can.probabilities)
        for i, ki in enumerate(can.operators):
            for j, kj in enumerate(can.operators):
                ov = np.trace(dag(ki) @ kj)
                want = d * ps[i] if i == j else 0.0
                assert abs(ov - want) < 1e-9


def test_canonical_kraus_reproduces_the_map():
    rng = np.random.default_rng(32)
    for _ in range(5):
        m = random_channel(2, 2, rng)
        assert equivalent(canonical_kraus(m).as_map(), m)


def test_entropy_reference_values():
    assert abs(entropy(named_channel("unitary:H"))) < 1e-12
    assert abs(entropy(named_channel("dephasing:0.5")) - 1.0) < 1e-12
    assert abs(entropy(named_channel("depolarizing:1.0")) - 2.0) < 1e-12


def test_entropy_invariant_under_rotation():
    rng = np.random.default_rng(33)
    m = named_channel("depolarizing:0.35")
    s0 = entropy(m)
    for _ in range(20):
        r = random_unitary(len(m), rng)
        rotated = kraus_rotation(m, r)
        assert abs(entropy(rotated) - s0) < 1e-9
        assert equivalent(rotated, m)


def test_rotation_requires_isometric_mixing():
    m = named_channel("dephasing:0.5")
    with pytest.raises(ValueError):
        kraus_rotation(m, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_hadamard_rotation_of_dephasing_gives_projectors():
    m = named_channel("dephasing:0.5")
    rot = kraus_rotation(m, H)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert np.abs(rot.operators[0] - p0).max() < 1e-12
    assert np.abs(rot.operators[1] - p1).max() < 1e-12


def test_equivalent_distinguishes_channels():
    assert equivalent(named_channel("dephasing:0.5"),
                      kraus_rotation(named_channel("dephasing:0.5"), H))
    assert not equivalent(named_channel("dephasing:0.3"),
                          named_channel("dephasing:0.5"))


def test_stinespring_round_trip():
    rng = np.random.default_rng(34)
    for tag in ("dephasing:0.25", "depolarizing:0.6", "unitary:X"):
        m = named_channel(tag)
        dil = stinespring(m)
        back = kraus_from_ancilla_basis(dil)
        assert len(back) == len(m)
        for a, b in zip(back.operators, m.operators):
            assert np.abs(a - b).max() < 1e-9
    m = random_channel(2, 3, rng)
    back = kraus_from_ancilla_basis(stinespring(m))
    for a, b in zip(back.operators, m.operators):
        assert np.abs(a - b).max() < 1e-9


def test_stinespring_matrix_is_unitary():
    m = named_channel("dephasing:0.5")
    dil = stinespring(m)
    u = dil.matrix
    assert np.abs(dag(u) @ u - np.eye(u.shape[0])).max() < 1e-10


def test_fourier_ancilla_basis_selects_projectors():
    """Reading the dephasing ancilla in the +/- basis swaps representations."""
    m = named_channel("dephasing:0.5")
    dil = stinespring(m)
    f = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    rep = kraus_from_ancilla_basis(dil, f)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert np.abs(rep.operators[0] - p0).max() < 1e-9
    assert np.abs(rep.operators[1] - p1).max() < 1e-9
    assert equivalent(rep, m)


def test_ancilla_basis_must_be_orthonormal():
    dil = stinespring(named_channel("dephasing:0.5"))
    with pytest.raises(ValueError):
        kraus_from_ancilla_basis(dil, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_choi_eigen_decomposition_is_deterministic():
    # degenerate Choi spectra must still come out in a fixed order
    m = named_channel("dephasing:0.5")
    a = canonical_kraus(m)
    b = canonical_kraus(m)
    for ka, kb in zip(a.operators, b.operators):
        assert np.abs(ka - kb).max() == 0.0


def test_depolarizing_canonical_probabilities():
    can = canonical_kraus(named_channel("depolarizing:0.4"))
    ps = np.sort(np.asarray(can.probabilities))
    want = np.sort(np.array([1 - 0.3, 0.1, 0.1, 0.1]))
    assert np.abs(ps - want).max() < 1e-10


def test_apply_checks_dimension():
    m = named_channel("dephasing:0.5")
    with pytest.raises(ValueError):
        m.apply(np.eye(3, dtype=complex))


NAN2 = np.full((2, 2), np.nan, dtype=complex)


def test_kraus_map_rejects_nan():
    with pytest.raises(ValueError, match="completeness"):
        KrausMap((NAN2,))


def test_choi_state_rejects_nan():
    with pytest.raises(ValueError, match="Hermitian"):
        ChoiState(2, np.full((4, 4), np.nan, dtype=complex))


def test_stinespring_dilation_rejects_nan():
    with pytest.raises(ValueError, match="unitary"):
        StinespringDilation(np.full((4, 4), np.nan, dtype=complex), 2, 2)


def test_kraus_rotation_rejects_nan_isometry():
    with pytest.raises(ValueError, match="orthonormal"):
        kraus_rotation(named_channel("dephasing:0.5"), NAN2)


def test_ancilla_basis_rejects_nan():
    dil = stinespring(named_channel("dephasing:0.5"))
    with pytest.raises(ValueError, match="orthonormal"):
        kraus_from_ancilla_basis(dil, NAN2)


def test_choi_matches_kron_construction():
    rng = np.random.default_rng(61)
    m = random_channel(3, 4, rng)
    phi = np.eye(3).ravel() / np.sqrt(3)
    want = sum(
        np.outer(v, v.conj())
        for v in (np.kron(k, np.eye(3)) @ phi for k in m.operators)
    )
    assert np.abs(choi(m).matrix - want).max() < 1e-14


def test_kraus_map_keeps_a_read_only_copy_of_its_elements():
    a = np.sqrt(0.5) * I2.astype(complex)
    b = np.sqrt(0.5) * Z.astype(complex)
    m = KrausMap((a, b))
    a[:] = np.sqrt(0.5) * X
    b[:] = np.sqrt(0.5) * Y
    assert np.abs(m.operators[0] - np.sqrt(0.5) * I2).max() == 0.0
    assert np.abs(m.operators[1] - np.sqrt(0.5) * Z).max() == 0.0
    canon = canonical_kraus(m)
    want = canonical_kraus(named_channel("dephasing:0.5"))
    assert np.array_equal(canon.probabilities, want.probabilities)
    assert np.array_equal(np.stack(canon.operators), np.stack(want.operators))
    with pytest.raises(ValueError):
        m.operators[0][0, 0] = 0.0


def test_canonical_form_is_read_only_and_repeatable():
    m = named_channel("depolarizing:0.3")
    canon = canonical_kraus(m)
    with pytest.raises(ValueError):
        canon.probabilities[0] = 1.0
    with pytest.raises(ValueError):
        canon.operators[0][0, 0] = 1.0
    for again in (canonical_kraus(m),
                  canonical_kraus(named_channel("depolarizing:0.3"))):
        assert np.array_equal(again.probabilities, canon.probabilities)
        assert np.array_equal(np.stack(again.operators),
                              np.stack(canon.operators))
    assert entropy(m) == entropy(m)
