import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import (
    BipartiteUnitary,
    ExpansionCoefficients,
    OperatorBasis,
    UnitaryOperator,
    clock_shift,
    clock_shift_powers,
    expand,
    gram,
    measure_which_unitary,
    operator_schmidt,
    pauli_basis,
    pauli_string,
    pauli_strings,
    reconstruct,
    rotate_basis,
    weyl_basis,
)
from evometry import basis as basis_module
from evometry.gates import CNOT, H, I2, PAULI_LABELS, X, Y, Z
from evometry.linalg import _fourier, dag, random_unitary


def test_pauli_basis_single_qubit_elements():
    b = pauli_basis(dim=2)
    assert b.labels == ("I", "X", "Y", "Z")
    for el, ref in zip(b.elements, (I2, X, Y, Z)):
        assert np.abs(el - ref).max() < 1e-14


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_labels_are_the_letter_strings_in_order(n):
    """One string per element, a letter of IXYZ per qubit, in
    lexicographic order of the letters' indices."""
    want = ["".join(PAULI_LABELS[l] for l in letters)
            for letters in itertools.product(range(4), repeat=n)]
    assert pauli_basis(dim=2 ** n).labels == tuple(want)


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
    for count in (0, 3, 15):
        with pytest.raises(ValueError, match=f"need d\\^2 coefficients, "
                                             f"got {count}"):
            ExpansionCoefficients(np.zeros(count, dtype=complex))
    assert ExpansionCoefficients(np.zeros((3, 3))).dim == 3


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
        OperatorBasis(tuple(els), ("I", "X", "Y", "Z"))


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
    assert OperatorBasis(rb.elements, rb.labels).is_unitary is False
    assert rotate_basis(b, np.eye(4)[::-1]).is_unitary is True
    with pytest.raises(TypeError):
        OperatorBasis(rb.elements, rb.labels, is_unitary=True)


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
    b = OperatorBasis(arr, ("I", "X", "Y", "Z"))
    arr[:] = 0.0
    assert np.abs(b.elements - np.stack([I2, X, Y, Z])).max() == 0.0
    with pytest.raises(ValueError):
        b.elements[1][0, 0] = 0.0
    rotated = rotate_basis(b, random_unitary(4, 3))
    for basis in (b, pauli_basis(dim=4), weyl_basis(3), rotated):
        assert isinstance(basis.elements, np.ndarray)
        assert basis.elements.shape == (basis.dim ** 2, basis.dim, basis.dim)
        assert not basis.elements.flags.writeable
    for shape in ((3, 3), (3, 2, 2), (4, 2, 3), (0, 0, 0), ()):
        with pytest.raises(ValueError, match=r"need d\^2 elements of shape "
                                             r"\(d, d\), got shape"):
            OperatorBasis(np.zeros(shape), ("a", "b", "c"))
    with pytest.raises(ValueError, match="one label per element"):
        OperatorBasis(arr, ("I", "X", "Y"))


def test_builders_refuse_a_u0_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="u0 has dim 2, expected 4"):
        weyl_basis(4, np.eye(2))
    with pytest.raises(ValueError, match="dimension 3 is not a power of two"):
        pauli_basis(np.eye(3))
    for build in (pauli_basis, lambda u0: weyl_basis(2, u0)):
        with pytest.raises(ValueError, match="u0 is not unitary"):
            build(np.diag([1.0, 2.0]))


def test_the_reference_is_the_first_element():
    """A basis holds no u0 apart from its elements: the echo circuit's
    reference is elements[0], so the builder's basis and the one built
    from the same elements are one basis, and a basis whose elements are
    not elements[0] s_a is refused, naming the first that deviates."""
    u0 = random_unitary(4, 5)
    p = pauli_basis(u0)
    assert np.array_equal(p.elements[0], u0)
    same = OperatorBasis(p.elements, p.labels)
    assert same == p and hash(same) == hash(p)
    assert pauli_basis(UnitaryOperator(u0)) == p
    assert pauli_basis(dim=2) == pauli_basis(np.eye(2))
    assert weyl_basis(3) == weyl_basis(3, np.eye(3))
    # (X, I, Y, Z) starts at X: X I = X, X X = I, but X Y = iZ is not Y
    swapped = pauli_basis(dim=2).elements[[1, 0, 2, 3]]
    b = OperatorBasis(swapped, ("X", "I", "Y", "Z"))
    with pytest.raises(ValueError, match="element 2 deviates"):
        measure_which_unitary(np.eye(2), b, np.eye(2)[0])
    with pytest.raises(AttributeError):
        p.u0


def test_basis_owns_a_read_only_copy_of_its_u0():
    u0 = random_unitary(4, 6)
    kept = u0.copy()
    b = pauli_basis(u0)
    u0[:] = np.eye(4)
    assert np.abs(b.elements[0] - kept).max() == 0.0
    m = H.copy()
    op = UnitaryOperator(m)
    m[:] = 0.0
    assert np.abs(op.matrix - H).max() == 0.0
    for frozen in (b.elements[0], op.matrix):
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
        (ExpansionCoefficients([1, 0, 0, 0]),
         ExpansionCoefficients([1, 0, 0, 0]),
         ExpansionCoefficients([0, 1, 0, 0])),
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
    assert a._product_form == ((2, 2), True, None)
    assert a == b and hash(a) == hash(b)
    assert weyl_basis(4)._product_form == ((4,), False, None)
    assert weyl_basis(3)._product_form == ((3,), False, None)
    v = random_unitary(4, 7)
    sites, pauli, u0 = pauli_basis(v)._product_form
    assert (sites, pauli) == ((2, 2), True) and np.array_equal(u0, v)


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["pauli", "weyl"]), size=st.integers(1, 3),
       with_u0=st.booleans(), unitary=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_expand_equals_the_conjugated_stack_formula_to_the_last_bit(
        family, size, with_u0, unitary, seed):
    """Over a basis built directly, expand conjugates the operator, not
    the d^2 x d^2 stack; by the sign symmetry of IEEE arithmetic its
    coefficients are those of conj(elements) @ op, bit for bit, for any
    operator."""
    rng = np.random.default_rng(seed)
    d = 2 ** size if family == "pauli" else (3, 5, 6)[size - 1]
    u0 = random_unitary(d, rng) if with_u0 else None
    built = (pauli_basis(u0, dim=d) if family == "pauli"
             else weyl_basis(d, u0))
    basis = OperatorBasis(built.elements, built.labels)
    op = (random_unitary(d, rng) if unitary
          else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    old = basis.elements.reshape(d * d, -1).conj() @ op.ravel() / d
    assert np.array_equal(expand(op, basis).coeffs, old)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["pauli", "weyl"]), size=st.integers(1, 5),
       with_u0=st.booleans(), unitary=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_builder_expand_matches_the_stack_formula(family, size, with_u0,
                                                  unitary, seed):
    """A builder basis expands through its family's transform of
    u0^dag op, never its stack: within 1e-15 of conj(elements) @ op / d,
    for Pauli n <= 5 and Weyl d <= 11, and without building elements.
    Both routes round in proportion to op, so for a general op the bound
    is 1e-15 times its norm over a unitary's, |op|_F / sqrt(d) (about
    sqrt(2 d) for these Gaussian entries)."""
    rng = np.random.default_rng(seed)
    d = 2 ** size if family == "pauli" else (2, 3, 6, 7, 11)[size - 1]
    u0 = random_unitary(d, rng) if with_u0 else None
    basis = (pauli_basis(u0, dim=d) if family == "pauli"
             else weyl_basis(d, u0))
    op = (random_unitary(d, rng) if unitary
          else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    coeffs = expand(op, basis).coeffs
    assert "elements" not in vars(basis)
    stack = basis.elements.reshape(d * d, -1).conj() @ op.ravel() / d
    scale = max(1.0, np.linalg.norm(op) / np.sqrt(d))
    assert np.abs(coeffs - stack).max() <= 1e-15 * scale


@pytest.mark.parametrize("kind,d", [("pauli", 2), ("pauli", 4),
                                    ("pauli", 8), ("pauli", 16)]
                         + [("weyl", d) for d in range(2, 17)])
def test_evometry_basis_reads_the_gram_deviation_from_the_family(kind, d):
    """The CLI's gram_deviation, read from the family's structure, is the
    full Gram's within rounding: exactly 0.0 for Pauli strings."""
    basis = pauli_basis(dim=d) if kind == "pauli" else weyl_basis(d)
    full = np.abs(gram(basis.elements) / d - np.eye(d * d)).max()
    structured = basis_module._family_gram_deviation(basis)
    assert abs(structured - full) <= 1e-15
    assert kind == "weyl" or structured == full == 0.0


def _copies(basis):
    return (copy.deepcopy(basis), pickle.loads(pickle.dumps(basis)),
            copy.copy(basis))


@pytest.mark.parametrize("kind,d", [("pauli", 2), ("pauli", 4),
                                    ("pauli", 8), ("weyl", 2), ("weyl", 3),
                                    ("weyl", 5)])
def test_copies_and_pickles_are_built_again_through_the_checks(kind, d):
    """A deepcopy, a copy and a pickle round trip of a builder basis hold
    the same structure and no stack, read-only, equal to the directly
    built copy and hashed alike, and expand bit for bit as the original;
    a basis built directly comes back equal with read-only elements."""
    rng = np.random.default_rng(d)
    for u0 in (None, random_unitary(d, rng), np.eye(d)):
        b = pauli_basis(u0, dim=d) if kind == "pauli" else weyl_basis(d, u0)
        op = random_unitary(d, rng)
        for c in _copies(b):
            assert "elements" not in vars(c)
            assert c.labels == b.labels and len(c) == d * d
            sites, pauli, ref = c._product_form
            assert (sites, pauli) == b._product_form[:2]
            assert (ref is None) == (b._product_form[2] is None)
            assert ref is None or (np.array_equal(ref, b._product_form[2])
                                   and not ref.flags.writeable)
            assert np.array_equal(expand(op, c).coeffs,
                                  expand(op, b).coeffs)
        direct = OperatorBasis(b.elements, b.labels)
        for c in _copies(b) + _copies(direct):
            assert c == direct and hash(c) == hash(direct) == hash(b)
            assert not c.elements.flags.writeable
        assert "elements" in vars(b)  # == and hash built it, once
    rotated = rotate_basis(pauli_basis(dim=2), random_unitary(4, 1))
    for c in _copies(rotated):
        assert c == rotated and not c.elements.flags.writeable


def _builder_cases():
    for n in range(1, 5):
        yield "pauli", 2 ** n
    for d in range(2, 12):
        yield "weyl", d


@pytest.mark.parametrize("kind,d", list(_builder_cases()))
def test_builder_bases_equal_their_directly_built_copies(kind, d):
    """A builder checks orthogonality from u0 alone and memoises the
    product form and is_unitary; the same elements built directly, with
    the full Gram check, give an equal basis that finds the same memos."""
    u0s = (None, random_unitary(d, d), np.eye(d))
    for u0 in u0s:
        b = pauli_basis(u0, dim=d) if kind == "pauli" else weyl_basis(d, u0)
        direct = OperatorBasis(b.elements, b.labels)
        assert b == direct and hash(b) == hash(direct)
        assert not b.elements.flags.writeable
        assert b.is_unitary is direct.is_unitary is True
        (sites, pauli, ref), (sites2, pauli2, ref2) = (b._product_form,
                                                       direct._product_form)
        assert (sites, pauli) == (sites2, pauli2)
        assert (ref is None) == (ref2 is None) == (u0 is not u0s[1])
        assert ref is None or np.array_equal(ref, ref2)


def test_builder_bases_compare_their_structures_without_stacks():
    """Two builder bases compare their sites, family, u0 and labels: at
    n = 6, where each stack would take 268 MB, no elements are built."""
    u0 = random_unitary(64, 6)
    a, b = pauli_basis(u0), pauli_basis(u0.copy())
    assert a == b and not a != b
    assert pauli_basis(np.eye(64)) == pauli_basis(dim=64)
    others = (pauli_basis(dim=64), pauli_basis(random_unitary(64, 7)),
              pauli_basis(random_unitary(32, 6)),
              weyl_basis(64, u0))
    for other in others:
        assert a != other and not a == other and not other == a
        assert "elements" not in vars(other)
    assert "elements" not in vars(a) and "elements" not in vars(b)


def _family(d):
    return pauli_strings(d.bit_length() - 1) if d & (d - 1) == 0 \
        else basis_module._weyl_products(d)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 5, 6, 7, 8]), eps=st.floats(0, 2e-10),
       hermitian=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_the_builders_residual_is_the_grams(d, eps, hermitian, seed):
    """max_c |tr(s_c^dag E)|, E = u0^dag u0 - 1, is max |G - d 1| of the
    Gram of {u0 s_a}, for u0 a Haar unitary times 1 + eps or 1 + eps H."""
    rng = np.random.default_rng(seed)
    h = np.eye(d)
    if hermitian:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + dag(g)) / 2
    u0 = random_unitary(d, rng) @ (np.eye(d) + eps * h)
    full = np.abs(gram(u0 @ _family(d)) - d * np.eye(d * d)).max()
    form = ((2,) * (d.bit_length() - 1), True) if d & (d - 1) == 0 \
        else ((d,), False)
    assert abs(basis_module._residual(*form, u0) - full) <= 1e-14


def _site_tuples(most=12):
    """Every tuple of site dims >= 2 whose product is at most most."""
    return [t for n in (1, 2, 3)
            for t in itertools.product(range(2, most + 1), repeat=n)
            if math.prod(t) <= most]


def _product_family(site_dims):
    """Z^mu X^nu on each site, at q mu + nu, kron'd over the sites in
    mixed-radix order, first site most significant: the label order of
    the circuit's product form."""
    family = np.ones((1, 1, 1))
    for q in site_dims:
        a, s = len(family), q * family.shape[1]
        family = np.einsum("aij,bkl->abikjl", family,
                           basis_module._weyl_products(q)
                           ).reshape(a * q * q, s, s)
    return family


@settings(max_examples=60, deadline=None)
@given(site_dims=st.sampled_from(_site_tuples()), pauli=st.booleans(),
       eps=st.floats(0, 2e-10), seed=st.integers(0, 2 ** 32 - 1))
def test_the_transform_and_residual_hold_on_mixed_sites(site_dims, pauli,
                                                        eps, seed):
    """Over every site tuple of product <= 12, mixed dimensions included:
    _family_traces is tr(s_a^dag m) over the product family, in label
    order, within 1e-14 |m|_F (Pauli strings when every site is a qubit
    and pauli is drawn), and _residual is max |G - d 1| of the Gram of
    {u0 s_a} for u0 a Haar unitary times 1 + eps, within 3e-15 d, the
    rounding of sums over roots of unity that grows with d (at d = 11
    the two differ by up to 1.6e-14)."""
    rng = np.random.default_rng(seed)
    pauli = pauli and set(site_dims) == {2}
    family = (pauli_strings(len(site_dims)) if pauli
              else _product_family(site_dims))
    d = family.shape[-1]
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    want = np.einsum("aij,ij->a", family.conj(), m)
    got = basis_module._family_traces(site_dims, pauli, m)
    assert np.abs(got - want).max() <= 1e-14 * np.linalg.norm(m)
    u0 = random_unitary(d, rng) * (1 + eps)
    full = np.abs(gram(u0 @ family) - d * np.eye(d * d)).max()
    residual = basis_module._residual(site_dims, pauli, u0)
    assert abs(residual - full) <= 3e-15 * d


@pytest.mark.parametrize("d,eps", [(2, 2e-11), (2, 4e-11), (3, 1e-11),
                                   (3, 2e-11), (4, 1e-11), (4, 2e-11)])
def test_a_builder_refuses_what_the_gram_refuses(d, eps):
    """A u0 that passes the unitarity check but scales the Gram's
    diagonal past 1e-10 is refused by the builder as by OperatorBasis,
    with the same message; one within it is accepted by both."""
    u0 = random_unitary(d, 5) * (1 + eps)
    labels = tuple(range(d * d))
    outcomes = []
    for build in (lambda: OperatorBasis(u0 @ _family(d), labels),
                  lambda: pauli_basis(u0) if d & (d - 1) == 0
                  else weyl_basis(d, u0)):
        try:
            build()
            outcomes.append(None)
        except ValueError as err:
            assert "trace-orthogonal" in str(err)
            outcomes.append("refused")
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (2 * eps * d < 1e-10)


def test_a_direct_basis_of_a_non_orthogonal_family_is_refused():
    els = pauli_strings(2).copy()
    els[5] = (els[5] + els[6]) / np.sqrt(2)
    with pytest.raises(ValueError, match="trace-orthogonal"):
        OperatorBasis(els, tuple(range(16)))


def test_weyl_products_match_the_matrix_products_bit_for_bit():
    for d in range(2, 17):
        zp, xp = clock_shift_powers(d)
        want = np.einsum("mij,njk->mnik", zp, xp).reshape(d * d, d, d)
        assert basis_module._weyl_products(d).tobytes() == want.tobytes()
