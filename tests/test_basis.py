import itertools

import numpy as np
import pytest

from evometry import (
    BipartiteUnitary,
    ExpansionCoefficients,
    OperatorBasis,
    UnitaryOperator,
    clock_shift,
    clock_shift_powers,
    expand,
    gram,
    operator_schmidt,
    pauli_basis,
    pauli_string,
    pauli_strings,
    reconstruct,
    rotate_basis,
    weyl_basis,
)
from evometry.gates import CNOT, H, I2, X, Y, Z
from evometry.linalg import _fourier, dag, random_unitary


def test_pauli_basis_single_qubit_elements():
    b = pauli_basis(dim=2)
    assert b.labels == ("I", "X", "Y", "Z")
    for el, ref in zip(b.elements, (I2, X, Y, Z)):
        assert np.abs(el - ref).max() < 1e-14


def test_pauli_basis_gram_is_orthogonal():
    for dim in (2, 4, 8):
        b = pauli_basis(dim=dim)
        g = gram(b.elements)
        assert np.abs(g - dim * np.eye(dim * dim)).max() < 1e-10


def test_pauli_string_matches_kron():
    s = pauli_string((3, 1))
    assert np.abs(s - np.kron(Z, X)).max() < 1e-14


def test_weyl_relations_d3():
    """Clock and shift satisfy ZX = zeta XZ and Z^3 = X^3 = 1."""
    z, x = clock_shift(3)
    zeta = np.exp(2j * np.pi / 3)
    assert np.abs(z.matrix @ x.matrix - zeta * x.matrix @ z.matrix).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(z.matrix, 3) - np.eye(3)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(x.matrix, 3) - np.eye(3)).max() < 1e-12


def test_weyl_basis_gram_is_orthogonal():
    for dim in (2, 3, 5):
        b = weyl_basis(dim)
        g = gram(b.elements)
        assert np.abs(g - dim * np.eye(dim * dim)).max() < 1e-10


def test_weyl_d2_reduces_to_paulis():
    # ZX = i sigma_y at d = 2, so the four elements are I, X, Z, iY
    b = weyl_basis(2)
    assert np.abs(b.elements[0] - I2).max() < 1e-14
    assert np.abs(b.elements[1] - X).max() < 1e-14
    assert np.abs(b.elements[2] - Z).max() < 1e-14
    assert np.abs(b.elements[3] - 1j * Y).max() < 1e-14


def test_expand_reconstruct_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = random_unitary(4, rng)
        c = expand(u, pauli_basis(dim=4))
        back = reconstruct(c, pauli_basis(dim=4))
        assert np.abs(back - u).max() < 1e-10


def test_expand_reconstruct_round_trip_weyl():
    rng = np.random.default_rng(12)
    b = weyl_basis(3)
    for _ in range(20):
        u = random_unitary(3, rng)
        back = reconstruct(expand(u, b), b)
        assert np.abs(back - u).max() < 1e-10


def test_unitary_expansion_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(10):
        u = random_unitary(2, rng)
        c = expand(u, pauli_basis(dim=2))
        assert abs(c.probabilities().sum() - 1.0) < 1e-12


def test_basis_element_expands_to_delta():
    b = pauli_basis(dim=2)
    c = expand(Y, b)
    expect = np.zeros(4)
    expect[2] = 1.0
    assert np.abs(c.probabilities() - expect).max() < 1e-12


def test_rotated_basis_keeps_orthogonality():
    # the rotation mixes the four labels, so it lives on a 4-dim space
    rng = np.random.default_rng(14)
    b = pauli_basis(dim=2)
    for _ in range(10):
        k = random_unitary(4, rng)
        rb = rotate_basis(b, k)
        assert np.abs(gram(rb.elements) - 2 * np.eye(4)).max() < 1e-10


def test_rotation_composition_order():
    """rotate(rotate(B, k1), k2) applies k2 after k1, i.e. k2 @ k1."""
    rng = np.random.default_rng(15)
    b = pauli_basis(dim=2)
    k1 = random_unitary(4, rng)
    k2 = random_unitary(4, rng)
    twice = rotate_basis(rotate_basis(b, k1), k2)
    once = rotate_basis(b, k2 @ k1)
    for a, c in zip(twice.elements, once.elements):
        assert np.abs(a - c).max() < 1e-12


def test_prefaced_basis_absorbs_reference():
    # expanding u0 s in the u0-prefaced basis gives the same coefficients
    # as expanding s in the plain one
    rng = np.random.default_rng(16)
    u0 = random_unitary(2, rng)
    plain = pauli_basis(dim=2)
    prefaced = pauli_basis(u0=u0, dim=2)
    s = random_unitary(2, rng)
    c_plain = expand(s, plain)
    c_pref = expand(u0 @ s, prefaced)
    assert np.abs(c_plain.coeffs - c_pref.coeffs).max() < 1e-10


def test_expand_rejects_wrong_shape():
    with pytest.raises(ValueError):
        expand(np.eye(3), pauli_basis(dim=2))


def test_expansion_coefficients_validation():
    with pytest.raises(ValueError):
        ExpansionCoefficients(2, np.zeros(3, dtype=complex))


def test_gram_of_cnot_family():
    ops = [np.eye(4), CNOT]
    g = gram(ops)
    assert abs(g[0, 0] - 4.0) < 1e-12
    assert abs(g[0, 1] - 2.0) < 1e-12  # tr(CNOT) = 2, not orthogonal to 1


def test_weyl_element_order_is_mu_nu_lexicographic():
    d = 3
    z, x = clock_shift(d)
    b = weyl_basis(d)
    for mu in range(d):
        for nu in range(d):
            ref = (np.linalg.matrix_power(z.matrix, mu)
                   @ np.linalg.matrix_power(x.matrix, nu))
            assert np.abs(b.elements[mu * d + nu] - ref).max() < 1e-12


def test_constructor_misuse_gets_a_pointed_error():
    # an int in the u0 slot is the classic mixup with weyl_basis
    with pytest.raises(ValueError, match="pauli_basis\\(dim="):
        pauli_basis(4)
    with pytest.raises(ValueError, match="integer"):
        weyl_basis(np.eye(3))


def test_nan_element_is_rejected():
    els = [np.eye(2, dtype=complex), X.copy(), Y.copy(), Z.copy()]
    els[2][0, 1] = np.nan
    with pytest.raises(ValueError, match="trace-orthogonal"):
        OperatorBasis(2, tuple(els), ("I", "X", "Y", "Z"))


def test_pauli_strings_table_matches_kron_chains():
    for n in (1, 2, 3):
        table = pauli_strings(n)
        assert table.shape == (4 ** n, 2 ** n, 2 ** n)
        for a, letters in enumerate(itertools.product(range(4), repeat=n)):
            assert np.array_equal(table[a], pauli_string(letters))


def test_clock_shift_powers_match_matrix_powers():
    for d in (2, 3, 5):
        z, x = clock_shift(d)
        zp, xp = clock_shift_powers(d)
        assert not zp.flags.writeable and not xp.flags.writeable
        for m in range(d):
            assert np.abs(zp[m] - np.linalg.matrix_power(z.matrix, m)).max() < 1e-12
            assert np.array_equal(xp[m], np.linalg.matrix_power(x.matrix, m))


def test_fourier_table_is_the_unitary_dft():
    for n in range(1, 12):
        f = _fourier(n)
        jk = np.outer(np.arange(n), np.arange(n)) % n
        want = np.exp(2j * np.pi * jk / n) / np.sqrt(n)
        assert np.abs(f - want).max() <= 1e-15
        assert np.abs(dag(f) @ f - np.eye(n)).max() <= 1e-15
        assert not f.flags.writeable and _fourier(n) is f
        if n > 1:  # the diagonals of the clock powers, bit for bit
            zp = clock_shift_powers(n)[0]
            assert np.array_equal(
                f, np.diagonal(zp, axis1=1, axis2=2) / np.sqrt(n))


def test_is_unitary_is_computed_from_the_elements():
    b = pauli_basis(dim=2)
    rb = rotate_basis(b, random_unitary(4, 15))
    assert b.is_unitary and not rb.is_unitary
    assert OperatorBasis(2, rb.elements, rb.labels).is_unitary is False
    assert rotate_basis(b, np.eye(4)[::-1]).is_unitary is True
    with pytest.raises(TypeError):
        OperatorBasis(2, rb.elements, rb.labels, is_unitary=True)


def test_products_match_the_trace_loops():
    b = weyl_basis(3)
    u = random_unitary(3, 17)
    want_gram = np.array([[np.trace(dag(x) @ y) for y in b] for x in b])
    assert np.abs(gram(b.elements) - want_gram).max() < 1e-14
    c = expand(u, b)
    want = np.array([np.trace(dag(x) @ u) / 3 for x in b])
    assert np.abs(c.coeffs - want).max() < 1e-15
    rebuilt = sum(a * x for a, x in zip(c.coeffs, b))
    assert np.abs(reconstruct(c, b) - rebuilt).max() < 1e-15


def test_basis_keeps_a_read_only_copy_of_its_elements():
    arr = np.stack([I2, X, Y, Z]).astype(complex)
    b = OperatorBasis(2, arr, ("I", "X", "Y", "Z"))
    arr[:] = 0.0
    assert np.abs(b.elements - np.stack([I2, X, Y, Z])).max() == 0.0
    with pytest.raises(ValueError):
        b.elements[1][0, 0] = 0.0
    rotated = rotate_basis(b, random_unitary(4, 3))
    for basis in (b, pauli_basis(dim=4), weyl_basis(3), rotated):
        assert isinstance(basis.elements, np.ndarray)
        assert basis.elements.shape == (basis.dim ** 2, basis.dim, basis.dim)
        assert not basis.elements.flags.writeable
    with pytest.raises(ValueError, match=r"need 4 elements of shape \(2, 2\)"):
        OperatorBasis(2, np.eye(3), ("a", "b", "c"))


def test_basis_refuses_a_u0_of_the_wrong_dimension():
    p = pauli_basis(dim=4)
    with pytest.raises(ValueError, match="u0 has dim 2, expected 4"):
        OperatorBasis(4, p.elements, p.labels, u0=np.eye(2))


def test_basis_refuses_a_u0_that_is_not_its_first_element():
    p = pauli_basis(dim=4)
    with pytest.raises(ValueError, match="elements\\[0\\] is not u0"):
        OperatorBasis(4, p.elements, p.labels, u0=random_unitary(4, 5))
    b = OperatorBasis(4, p.elements, p.labels, u0=np.eye(4))
    assert isinstance(b.u0, UnitaryOperator)
    assert np.abs(b.u0.matrix - np.eye(4)).max() == 0.0


def test_basis_owns_a_read_only_copy_of_its_u0():
    u0 = random_unitary(4, 6)
    kept = u0.copy()
    b = pauli_basis(u0)
    u0[:] = np.eye(4)
    assert np.abs(b.u0.matrix - kept).max() == 0.0
    assert np.abs(b.elements[0] - kept).max() == 0.0
    m = H.copy()
    op = UnitaryOperator(m)
    m[:] = 0.0
    assert np.abs(op.matrix - H).max() == 0.0
    for frozen in (b.u0.matrix, op.matrix):
        with pytest.raises(ValueError):
            frozen[0, 0] = 1.0


def test_records_compare_by_their_arrays():
    """== compares fields entry by entry (it used to raise on the truth
    value of an array); the two read-only records also hash."""
    u0 = random_unitary(2, 8)
    pairs = [
        (pauli_basis(dim=2), pauli_basis(dim=2), weyl_basis(2)),
        (pauli_basis(u0), pauli_basis(u0.copy()), pauli_basis(dim=2)),
        (UnitaryOperator(H), UnitaryOperator(H.copy()), UnitaryOperator(X)),
        (ExpansionCoefficients(2, [1, 0, 0, 0]),
         ExpansionCoefficients(2, [1, 0, 0, 0]),
         ExpansionCoefficients(2, [0, 1, 0, 0])),
        (BipartiteUnitary((2, 2), CNOT),
         BipartiteUnitary((2, 2), CNOT.copy()),
         BipartiteUnitary((2, 2), np.eye(4))),
        (operator_schmidt(CNOT), operator_schmidt(CNOT),
         operator_schmidt(np.kron(H, X))),
    ]
    for a, b, other in pairs:
        assert a is not b and (a == b) is True and (a != b) is False
        assert (a == other) is False
        assert a != "not a record"
    for a, b, _ in pairs[:3]:
        assert hash(a) == hash(b)
    assert len({pauli_basis(dim=2), pauli_basis(dim=2), weyl_basis(2)}) == 2
    # -I2 has -0.0 off the diagonal, which equals 0.0
    minus = UnitaryOperator(np.diag([-1.0, -1.0]))
    assert UnitaryOperator(-I2) == minus
    assert hash(UnitaryOperator(-I2)) == hash(minus)
    for a, _, _ in pairs[3:]:
        with pytest.raises(TypeError):
            hash(a)


def test_memoised_form_check_takes_no_part_in_equality():
    a, b = pauli_basis(dim=4), pauli_basis(dim=4)
    assert a._pauli_form == 0.0
    assert a == b and hash(a) == hash(b)
