import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import (
    ChoiState,
    EvolutionSequence,
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
    verify_sequence,
)
from evometry.basis import clock_shift_powers, pauli_strings
from evometry.channels import TP_ATOL, CanonicalKraus
from evometry.gates import H, I2, X, Y, Z
from evometry.linalg import (
    UNITARY_ATOL,
    _fourier,
    dag,
    deterministic_eigh,
    random_unitary,
)


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


def _random_isometry_map(rng):
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, d * d + 3))
    return KrausMap(tuple(random_unitary(d * k, rng)[:, :d].reshape(k, d, d)))


def _pauli_frame_map(rng):
    """Pauli strings with phases 1, -1, i, -i and weights from {1, 2, 3}
    normalised: the canonical vectors have entries of exactly equal
    magnitude, and equal weights make degenerate groups."""
    n = int(rng.integers(1, 3))
    k = int(rng.integers(1, 4 ** n + 1))
    idx = rng.choice(4 ** n, size=k, replace=False)
    w = rng.integers(1, 4, size=k) / 1.0
    phases = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, size=k)]
    amps = np.sqrt(w / w.sum()) * phases
    return KrausMap(tuple(pauli_strings(n)[idx] * amps[:, None, None]))


def _straddling_map(rng, eps):
    """M0 = sqrt(1 - eps) U, M1 = sqrt(eps) U Z: trace orthogonal, so the
    weights are 1 - eps and eps, and eps lies within the 1e-10 degeneracy
    tolerance of the null block."""
    d = int(rng.integers(2, 5))
    u = random_unitary(d, rng)
    z = clock_shift_powers(d)[0][1]
    return KrausMap((np.sqrt(1 - eps) * u, np.sqrt(eps) * u @ z))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["random", "pauli-frame", "straddling"]),
       seed=st.integers(0, 2 ** 32 - 1),
       eps=st.floats(1.001e-12, 0.999e-10))
def test_canonical_kraus_is_the_trimmed_gauged_eigensystem(kind, seed, eps):
    """The SVD route against deterministic_eigh of the channel state,
    trimmed at 1e-12: weights and unit vectors (the gauge) entrywise at
    1e-12, and operators entrywise at 1e-12 wherever the weight exceeds
    1e-10. eigh resolves a weight w only to about 1e-17 absolute, so a
    reference operator sqrt(d w) W of weight 1e-11 is itself off by about
    1e-6 relative; the planted weight is checked against eps instead.
    For the same reason eps keeps 0.1% away from the 1e-12 trim floor
    and the 1e-10 degeneracy tolerance: on those edges the reference's
    rounding decides whether the weight is kept or joins the null block."""
    rng = np.random.default_rng(seed)
    m = {"random": lambda: _random_isometry_map(rng),
         "pauli-frame": lambda: _pauli_frame_map(rng),
         "straddling": lambda: _straddling_map(rng, eps)}[kind]()
    d = m.dim
    w, v = deterministic_eigh(choi(m).matrix)
    keep = w > 1e-12
    w, v = w[keep], v[:, keep]
    canon = canonical_kraus(m)
    p, ops = canon.probabilities, np.stack(canon.operators)
    assert p.shape == w.shape
    assert np.abs(p - w).max() <= 1e-12
    units = ops.reshape(p.size, d * d).T / np.sqrt(d * p)
    assert np.abs(units - v).max() <= 1e-12
    want = (v * np.sqrt(d * w)).T.reshape(-1, d, d)
    large = w > 1e-10
    assert np.abs(ops[large] - want[large]).max() <= 1e-12
    if kind == "straddling":
        assert p.size == 2 and abs(p[1] - eps) <= 1e-12 * eps


def test_maps_with_equal_elements_are_equal_and_hash_alike():
    a, b = named_channel("dephasing:0.5"), named_channel("dephasing:0.5")
    assert a == b and hash(a) == hash(b)
    assert (a != named_channel("dephasing:0.4")) is True
    assert (a == named_channel("unitary:H")) is False
    assert a != "dephasing:0.5"
    assert len({a, b, KrausMap((-0.0 * X, np.array(I2)))}) == 2
    assert KrausMap((-0.0 * X, np.array(I2))) == KrausMap((0 * X, I2))


def test_canonical_forms_compare_by_entries():
    a = canonical_kraus(named_channel("depolarizing:0.3"))
    b = canonical_kraus(named_channel("depolarizing:0.3"))
    assert a is not b and (a == b) is True
    assert (a == canonical_kraus(named_channel("dephasing:0.5"))) is False
    assert (a == CanonicalKraus(a.probabilities, a.operators[:2])) is False
    with pytest.raises(TypeError):
        hash(a)


def test_a_canonical_form_built_directly_holds_read_only_copies():
    weights = [0.5, 0.5]
    ops = np.stack([I2, Z]) * np.sqrt(2 * 0.5)
    c = CanonicalKraus(weights, ops)
    weights[0], ops[0, 0, 0] = 0.0, 0.0
    assert c.probabilities.dtype == float and c.probabilities[0] == 0.5
    assert c.operators[0, 0, 0] == 1
    for a in (c.probabilities, c.operators):
        with pytest.raises(ValueError):
            a[0] = 1


@pytest.mark.parametrize("gate", ["I", "X", "Y", "Z", "H", "CNOT", "SWAP"])
def test_entropy_of_a_unitary_is_never_negative(gate):
    """A unitary's one weight is 1 up to rounding on either side (H's is
    0.9999999999999996, since its entries are rounded); a weight above 1
    must not read as a negative entropy."""
    h = entropy(named_channel(f"unitary:{gate}"))
    assert math.copysign(1.0, h) == 1.0 and h <= 1e-15


def near_map():
    """A d = 4, k = 3 map whose completeness sum deviates by 5e-10 from the
    identity: within KrausMap's TP_ATOL, beyond UNITARY_ATOL."""
    iso = random_unitary(12, 23)[:, :4] * (1 + 2.5e-10)
    return KrausMap(iso.reshape(3, 4, 4))


def test_stinespring_accepts_a_map_within_the_completeness_tolerance():
    m = near_map()
    dil = stinespring(m)
    assert np.array_equal(kraus_from_ancilla_basis(dil).operators,
                          m.operators)
    dev = np.abs(dag(dil.matrix) @ dil.matrix - np.eye(12)).max()
    assert UNITARY_ATOL < dev <= TP_ATOL
    assert StinespringDilation(dil.matrix, 4, 3) == dil
    with pytest.raises(ValueError, match="dilation matrix is not unitary"):
        StinespringDilation(np.diag([1.0] * 11 + [1.0 + 2 * TP_ATOL]), 4, 3)


def test_stinespring_checks_what_is_not_a_kraus_map_as_one():
    """The isometry's Gram is the completeness sum KrausMap bounded, so
    stinespring checks no Gram of its own; elements from anything else
    are checked as a KrausMap first."""
    canon = canonical_kraus(named_channel("depolarizing:0.3"))
    native = kraus_from_ancilla_basis(stinespring(canon))
    assert type(native) is KrausMap
    assert np.array_equal(native.operators, canon.operators)
    with pytest.raises(ValueError, match="completeness sum"):
        stinespring(CanonicalKraus([1.0], [2 * I2]))


def eager_dilation(kraus):
    """The (d a) x (d a) dilation matrix as stinespring once built it on
    every call: the isometry in the columns j * a, and the orthonormal
    completion from the SVD of its adjoint in the rest."""
    d, a = kraus.dim, len(kraus)
    iso = kraus.operators.transpose(1, 0, 2).reshape(d * a, d)
    full = np.zeros((d * a, d * a), dtype=complex)
    full[:, [j * a for j in range(d)]] = iso
    _, _, vh = np.linalg.svd(iso.conj().T, full_matrices=True)
    complement = vh[d:].conj().T
    full[:, [j * a + i for j in range(d) for i in range(1, a)]] = complement
    return full


@pytest.mark.parametrize("d,a", [(2, 1), (2, 2), (2, 4), (3, 4), (4, 3),
                                 (5, 2)])
def test_dilation_matrix_is_built_on_first_read_bit_for_bit(d, a):
    m = random_channel(d, a, np.random.default_rng(10 * d + a))
    dil = stinespring(m)
    assert "matrix" not in vars(dil)
    assert not dil._isometry.flags.writeable
    u = dil.matrix
    assert np.array_equal(u, eager_dilation(m))
    assert not u.flags.writeable and dil.matrix is u
    assert np.abs(dag(u) @ u - np.eye(d * a)).max() <= UNITARY_ATOL


@pytest.mark.parametrize("kind", ["none", "identity", "fourier", "random"])
def test_readout_and_verification_build_no_dilation_matrix(kind):
    rng = np.random.default_rng(41)
    m = random_channel(3, 4, rng)
    dil = stinespring(m)
    b = {"none": None, "identity": np.eye(4), "fourier": _fourier(4),
         "random": random_unitary(4, rng)}[kind]
    rep = kraus_from_ancilla_basis(dil, b)
    want = np.einsum("ic,rcj->irj", np.eye(4) if b is None else b.conj(),
                     m.operators.transpose(1, 0, 2))
    assert np.abs(rep.operators - want).max() <= 1e-15
    drawn = verify_sequence(dil, b, EvolutionSequence(rep, (0,) * 6), 5)
    flipped = list(drawn.sampled)
    flipped[2] = (flipped[2] + 1) % 4
    assert verify_sequence(dil, b, EvolutionSequence(rep, drawn.sampled),
                           5).accepted
    assert not verify_sequence(dil, b, EvolutionSequence(rep, tuple(flipped)),
                               5).accepted
    assert "matrix" not in vars(dil)


def copies(dil):
    return (copy.deepcopy(dil), pickle.loads(pickle.dumps(dil)),
            copy.copy(dil))


def test_dilation_copies_are_built_again_through_the_checks():
    """Copies of a dilation from stinespring hold the same read-only
    isometry and no matrix, whether or not matrix was read; a directly
    built one is checked in full."""
    m = random_channel(3, 2, np.random.default_rng(43))
    dil = stinespring(m)
    for c in copies(dil):
        assert "matrix" not in vars(c)
        assert np.array_equal(c._isometry, dil._isometry)
        assert not c._isometry.flags.writeable
    direct = StinespringDilation(dil.matrix, 3, 2)
    assert dil == direct and not dil != direct
    assert dil != stinespring(random_channel(3, 2, np.random.default_rng(3)))
    for c in copies(stinespring(m)) + copies(dil) + copies(direct):
        assert c == direct and not c.matrix.flags.writeable


@pytest.mark.parametrize("operators", [[1.0], np.array([1.0]), 1.0, None,
                                       np.array(1.0), [[[1.0, 0.0]]]])
def test_kraus_map_refuses_malformed_input_with_value_error(operators):
    """A scalar, a flat list or a non-square element used to escape as an
    IndexError or a TypeError."""
    with pytest.raises(ValueError, match="square"):
        KrausMap(operators)


@pytest.mark.parametrize("operators", [(), [], np.zeros((0, 2, 2))])
def test_kraus_map_refuses_an_empty_stack(operators):
    with pytest.raises(ValueError, match="at least one operator element"):
        KrausMap(operators)


def _error(operators):
    with pytest.raises(ValueError) as err:
        KrausMap(operators)
    return str(err.value)


def test_kraus_map_builds_alike_from_a_stack_and_from_elements():
    """An ndarray, a tuple of arrays and a tuple of wrappers give equal maps
    with one C-contiguous read-only stack, copied from the input, and refuse
    the same inputs with the same messages."""
    from evometry import UnitaryOperator

    rng = np.random.default_rng(71)
    us = [random_unitary(3, rng) for _ in range(4)]
    stack = np.stack(us) / 2
    unitary = (KrausMap(stack[:1] * 2), KrausMap((us[0],)),
               KrausMap((UnitaryOperator(us[0]),)))
    for maps in ((KrausMap(stack), KrausMap(tuple(stack)),
                  KrausMap(list(stack))), unitary):
        for m in maps:
            assert m == maps[0] and hash(m) == hash(maps[0])
            assert m.operators.flags.c_contiguous
            assert not m.operators.flags.writeable
    # a transposed stack is copied into row-major order
    turned = KrausMap(stack.transpose(0, 2, 1))
    assert turned.operators.flags.c_contiguous
    assert np.array_equal(turned.operators, stack.transpose(0, 2, 1))
    built = KrausMap(stack)
    stack[0] = 0
    assert np.array_equal(built.operators[0], us[0] / 2)
    nan, incomplete = np.stack(us) / 2, np.stack(us) / 3
    nan[1, 0, 0] = np.nan
    for bad in (np.ones((2, 2, 3)), nan, incomplete):
        assert _error(bad) == _error(tuple(bad)) == _error(list(bad))
    ragged = [np.eye(2), np.eye(3)]
    assert (_error(ragged) == _error(tuple(ragged))
            == _error(np.array(ragged, dtype=object)))
    assert "share one square shape" in _error(ragged)


def test_ancilla_basis_shape_error_names_the_shapes():
    dil = stinespring(named_channel("depolarizing:0.3"))
    with pytest.raises(ValueError, match=r"4 x 4, got shape \(3, 3\)"):
        kraus_from_ancilla_basis(dil, np.eye(3))


def _readout_reference(m, b):
    return np.einsum("ic,rcj->irj", b.conj(), m.operators.transpose(1, 0, 2))


def test_a_dilation_keeps_its_last_readout():
    """The native readout is the source map; a repeat in a basis of equal
    entries returns the same map; another basis, or the same array changed
    in place, is read again and agrees with the reference contraction."""
    rng = np.random.default_rng(73)
    m = random_channel(3, 4, rng)
    dil = stinespring(m)
    assert kraus_from_ancilla_basis(dil) is m
    b = np.array(_fourier(4))
    rep = kraus_from_ancilla_basis(dil, b)
    assert kraus_from_ancilla_basis(dil, b.copy()) is rep
    assert kraus_from_ancilla_basis(dil, b.tolist()) is rep
    assert np.abs(rep.operators - _readout_reference(m, b)).max() <= 1e-15
    b[:] = random_unitary(4, rng)
    again = kraus_from_ancilla_basis(dil, b)
    assert again is not rep
    assert np.abs(again.operators - _readout_reference(m, b)).max() <= 1e-15
    native = kraus_from_ancilla_basis(dil)
    assert native == m and native is not m
    assert kraus_from_ancilla_basis(dil) is native
    # == and hashing ignore the memo; copies are read alike
    assert dil == stinespring(m)
    kraus_from_ancilla_basis(dil, b)
    for c in copies(dil):
        assert c == dil
        assert kraus_from_ancilla_basis(c) == m
        assert kraus_from_ancilla_basis(c, b) == again
    direct = StinespringDilation(dil.matrix, 3, 4)
    assert kraus_from_ancilla_basis(direct, b) == again
    for c in copies(direct):
        assert kraus_from_ancilla_basis(c, b) == again


def test_a_refused_ancilla_basis_is_not_remembered():
    dil = stinespring(named_channel("dephasing:0.5"))
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    for _ in range(2):
        with pytest.raises(ValueError, match="orthonormal"):
            kraus_from_ancilla_basis(dil, bad)


@pytest.mark.parametrize("d,k,kp", [(2, 2, 3), (3, 4, 4), (4, 3, 16),
                                    (8, 5, 7)])
def test_kraus_rotation_is_the_tensordot_bit_for_bit(d, k, kp):
    rng = np.random.default_rng(d * k * kp)
    m = random_channel(d, k, rng)
    u = random_unitary(kp, rng)[:k]
    got = kraus_rotation(m, u).operators
    assert np.array_equal(got, np.tensordot(u.T, m.operators, axes=1))
    assert got.flags.c_contiguous
