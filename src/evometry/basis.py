"""Orthogonal operator bases and expansion of evolutions over them.

A basis here is a family of d^2 operators B_0 .. B_{d^2-1} on C^d that are
orthogonal in the trace inner product, tr(B_a^dag B_b) = d delta_ab, with the
distinguished element B_0 playing the role of the reference evolution U_0.
Any operator U on C^d expands as U = sum_a C_a B_a with
C_a = (1/d) tr(B_a^dag U), and for unitary U the weights |C_a|^2 form a
probability distribution over the basis elements.

A basis built directly is checked with its full Gram matrix, one
(d^2 x d^2) x (d^2 x d^2) product, and expands over its stacked elements.
The builders pauli_basis and weyl_basis make {u0 s_a} from a product
family, s_a the tensor product over sites of dims q_j of Z^mu_j X^nu_j
(Pauli strings are the qubit case, with Y = -i Z X), orthogonal by
construction, and hold that structure, the site dimensions, the family
and u0, in place of the d^2 x d x d stack (see linalg._record for the
lifecycle of such a record).

Every reader of that structure goes through one transform of the
product group, _family_traces. (Z^mu X^nu)_ik = zeta^(mu i) delta(i,
k + nu) digit by digit, so tr(s_a^dag m) = sum_i zeta^(-mu i) m[i, i -
nu]: m gathered at the rows table of _trace_order (read from the down
table of _couplings), read over i by the conjugate kernels of _readout
(linalg._kernel kron'd over runs of sites), gives every trace at once,
and _trace_order puts them in label order. expand is that transform of
u0^dag U over d. Only u0 can spoil orthogonality: with E = u0^dag u0 -
1, G_ab - d delta_ab = tr(E s_b s_a^dag), and the products s_b s_a^dag
run over the family up to unit phases, so the Gram's residual is max_c
|tr(s_c^dag E)|, the same transform of E, for any tuple of sites (and
nothing without u0). The
echo circuit (measure) reads the same tables and kernels, which live
here beside the family whose labels they lay out. Its product form and
is_unitary are memoised at build time.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import gates
from .linalg import (
    UNITARY_ATOL,
    _array_hash,
    _check,
    _count,
    _filled,
    _frozen,
    _held,
    _isometry_deviation,
    _kernel,
    _record,
    _seal,
    _unitary,
    as_matrix,
    dag,
)

# largest entry by which an element may differ from u0 s_a and still be
# the product the echo circuit measures
PRODUCT_FORM_ATOL = 1e-9
# readout pair index 2 mu + nu carrying each of I, X, Y, Z on one qubit;
# Y sits at (mu, nu) = (1, 1) because Z X = i sigma_y
_PAULI_PAIRS = np.array([0, 1, 3, 2])
# a block's sites are read in runs of consecutive sites whose kernel, the
# kron of theirs, has at most this many rows (a site of more levels is a
# run of its own)
READ_ROWS = 16


@_record
class UnitaryOperator:
    """A validated unitary matrix, stored as a read-only copy of the
    input. Operators with equal matrices are equal and hash alike."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _unitary(self.matrix))

    def __hash__(self) -> int:
        return _array_hash(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@_record
class ExpansionCoefficients:
    """Coefficients C_a of an operator over an orthogonal basis on C^d:
    d^2 of them, so dim is the square root of their count, held as one
    read-only array."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _frozen(np.ravel(self.coeffs))
        if c.size == 0 or math.isqrt(c.size) ** 2 != c.size:
            raise ValueError(f"need d^2 coefficients, got {c.size}")
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return math.isqrt(self.coeffs.size)

    def probabilities(self) -> np.ndarray:
        """|C_a|^2 for every basis element."""
        return np.abs(self.coeffs) ** 2


@_record
class OperatorBasis:
    """d^2 trace-orthogonal operators on C^d and one label per element.

    elements is one read-only (d^2, d, d) array, copied from the input,
    so a basis never changes after it is checked. Bases with equal
    elements and labels are equal and hash alike, however they were
    built.

    The echo circuit reads a basis of the product form {u0 s_a} with
    s_0 = 1, so its reference u0 is elements[0] and is not stored apart.
    u0 is unitary within tolerance whenever the basis is of that form:
    trace orthogonality gives tr(u0^dag u0 s_b s_a^dag) = d delta_ab, and
    the products s_b s_a^dag span every matrix, so u0^dag u0 = 1 and the
    echo undoes u0 with dag(elements[0]).

    is_unitary is computed, not passed, and memoised: whether every
    element is unitary within 1e-10, which is what makes the
    which-element measurement a measurement over unitaries.

    Built directly, a basis is checked with its full Gram matrix and
    dim is read from the elements' shape. pauli_basis and weyl_basis
    hold the basis's structure instead of its stack: the site
    dimensions, the family (Pauli strings or clock/shift products) and
    the checked u0. They check only what u0 can spoil, with the same
    tolerance and message, read dim and len from the sites, and memoise
    is_unitary (True: each u0 s_a has u0's isometry deviation, which the
    builder bounded) and the product form. Their elements are built on
    first read, by hash, == against a basis built directly, indexing,
    repr, rotate_basis, reconstruct, measure_choi_side, bipartite_expand
    and operator_schmidt; expand, the echo circuit,
    which_unitary_distribution and superdense_send read the structure
    and build no stack.
    """

    elements: np.ndarray
    labels: tuple
    # (site_dims, pauli, u0) of a builder basis, u0 None when exactly the
    # identity; None for a basis built directly
    _structure = None

    def __post_init__(self):
        elements = _frozen(self.elements)
        d = elements.shape[-1] if elements.ndim == 3 else 0
        if d < 1 or elements.shape != (d * d, d, d):
            raise ValueError("need d^2 elements of shape (d, d), got shape "
                             f"{elements.shape}")
        if len(self.labels) != d * d:
            raise ValueError("one label per element required")
        _check(np.abs(gram(elements) - d * np.eye(d * d)).max(),
               UNITARY_ATOL, "elements are not trace-orthogonal")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", tuple(self.labels))

    def _build_elements(self) -> np.ndarray:
        site_dims, pauli, u0 = self._structure
        family = (pauli_strings(len(site_dims)) if pauli
                  else _weyl_products(site_dims[0]))
        return family if u0 is None else u0 @ family

    def __hash__(self) -> int:
        return _array_hash(self.elements)

    @property
    def dim(self) -> int:
        if self._structure is not None:
            return math.prod(self._structure[0])
        return self.elements.shape[-1]

    @functools.cached_property
    def is_unitary(self) -> bool:
        return bool(_isometry_deviation(self.elements) <= UNITARY_ATOL)

    @functools.cached_property
    def _product_form(self) -> tuple:
        """(site_dims, pauli, u0) of the echo circuit that reads the basis
        out: n qubit sites if elements[a] == u0 @ pauli_strings(n)[a], else
        one d-level site if elements[a] == u0 Z^mu X^nu, with
        u0 = elements[0], or None when that is exactly the identity, so
        the circuit skips its two products with it. Memoised but not a
        field (a basis is frozen); a basis of neither form, or of one
        level, is refused, and again on every call."""
        d = self.dim
        if d < 2:
            raise ValueError("the echo circuit needs a basis of dimension "
                             f">= 2, got dimension {d}")
        u0 = _reference(self.elements[0])
        n = d.bit_length() - 1
        bad = None
        if d == 2 ** n:
            bad = _deviation(self, pauli_strings(n))
            if bad is None:
                return (2,) * n, True, u0
        weyl = _deviation(self, _weyl_products(d))
        if weyl is None:
            return (d,), False, u0
        raise ValueError("basis is not of the product form {u0 s_a} this "
                         "circuit measures (element "
                         f"{weyl if bad is None else bad} deviates)")

    def __len__(self) -> int:
        return self.dim ** 2

    def __getitem__(self, a: int) -> np.ndarray:
        return self.elements[a]


def gram(elements) -> np.ndarray:
    """Trace-inner-product Gram matrix tr(B_a^dag B_b), as one product of
    the flattened elements."""
    flat = np.reshape(elements, (len(elements), -1))
    return flat.conj() @ flat.T


def _structured_basis(site_dims, pauli, u0, labels) -> OperatorBasis:
    """The basis {u0 s_a} of a builder's family, held as its structure:
    s_a are the Pauli strings on len(site_dims) qubits (pauli) or the
    clock/shift products on one site_dims[0]-level site, orthogonal by
    construction with s_0 = 1, and u0 a checked unitary or None.

    The Gram's residual, from _residual, is checked as OperatorBasis
    checks the Gram. The record holds no elements; its structure, product
    form and is_unitary are memoised, since the builder established all
    three. Its source is the builder call with u0 as _reference gives it,
    so a u0 of exactly the identity makes the same basis as none."""
    if u0 is not None:
        _check(_residual(site_dims, pauli, u0), UNITARY_ATOL,
               "elements are not trace-orthogonal")
    ref = _reference(u0)
    source = ((pauli_basis, (ref, math.prod(site_dims))) if pauli
              else (weyl_basis, (site_dims[0], ref)))
    form = (site_dims, pauli, ref)
    return _held(OperatorBasis, source, labels=tuple(labels),
                 _structure=form, _product_form=form, is_unitary=True)


def _residual(site_dims, pauli, u0) -> float:
    """max |G - d 1| of the Gram of {u0 s_a} (see the module docstring):
    max_c |tr(s_c^dag E)|, E = u0^dag u0 - 1, the family's transform of E."""
    e = dag(u0) @ u0 - np.eye(len(u0))
    return float(np.abs(_family_traces(site_dims, pauli, e)).max())


def _family_traces(site_dims, pauli, m) -> np.ndarray:
    """tr(s_a^dag m) for every element s_a of the product family on the
    sites, in label order, from the complex d x d matrix m alone.

    tr(s_a^dag m) = sum_i zeta^(-mu i) m[i, i - nu] (see the module
    docstring): m taken at _trace_order's rows holds the shifted
    diagonals m[i, i - nu] as columns, the conjugate kernel runs of
    _readout read them over i into [mu block, nu block] traces, and
    _trace_order's index and phase put those in label order. The
    kernels are unnormalised, so on qubit sites (kernels of +-1, phases
    powers of i) a trace is rounded only in its sums."""
    runs, _ = _readout(site_dims, pauli)
    rows, index, phase = _trace_order(site_dims, pauli)
    traces = _read(m.ravel()[rows], runs, 1, True).ravel()[index]
    return traces if phase is None else traces * phase


# ---------------------------------------------------------------------------
# product-family tables, shared by _family_traces and the echo circuit


@functools.lru_cache(maxsize=16)
def _couplings(site_dims: tuple) -> np.ndarray:
    """The read-only D x D index table down of a site tuple (D the
    product of the site dims): down[y, l] the level l - y, digit by digit
    mod q_j in mixed-radix order. It depends only on the site dims and is
    built once per site tuple (the 16 most recent are kept); the echo
    circuit shifts its state by it (see measure), and _trace_order reads
    the shifted diagonals of a matrix at its transpose."""
    dim = math.prod(site_dims)
    qs = np.array(site_dims)
    strides = dim // np.cumprod(qs)
    digits = np.arange(dim)[:, None] // strides % qs
    return _seal((digits[None] - digits[:, None]) % qs @ strides)


@functools.lru_cache(maxsize=16)
def _readout(site_dims: tuple, pauli: bool) -> tuple:
    """The kernels of one site tuple: (runs, order). Each run (pre, r, f,
    fc) covers r consecutive levels of a block, with pre levels of the
    block before them, and reads them with f, the kron of the run's
    unnormalised kernels linalg._kernel(q), or fc = conj(f); a run of
    qubits reads with the real kron of [[1, 1], [1, -1]]. order[a] is the
    (nu block, mu block) index of label a, whose per-site pair (mu, nu)
    sits at q mu + nu, or for a Pauli site at label l of I, X, Y, Z, in
    mixed-radix order. Read-only."""
    n, runs, first = len(site_dims), [], 0
    for j in range(1, n + 1):
        if j < n and math.prod(site_dims[first:j + 1]) <= READ_ROWS:
            continue
        f = functools.reduce(np.kron, map(_kernel, site_dims[first:j]))
        f = np.real_if_close(f)
        # copies, not _seal: a real kron is a strided view of the complex
        # one, and _read's products want contiguous kernels
        runs.append((math.prod(site_dims[:first]), len(f),
                     _frozen(f, None), _frozen(f.conj(), None)))
        first = j
    dim = stride = math.prod(site_dims)
    order = np.zeros(1, dtype=np.intp)
    for q in site_dims:
        stride //= q
        pairs = _PAULI_PAIRS if pauli else np.arange(q * q)
        order = np.add.outer(order, pairs // q * stride
                             + pairs % q * stride * dim).ravel()
    return tuple(runs), _seal(order)


@functools.lru_cache(maxsize=16)
def _trace_order(site_dims: tuple, pauli: bool) -> tuple:
    """(rows, index, phase) of _family_traces: rows[k, nu] = k D +
    down[nu, k], the flat index of m[k, k - nu] in a D x D matrix m (down
    of _couplings), so that m.ravel()[rows] holds the shifted diagonals
    m[i, i - nu] as columns, contiguous; index[a] the flat place of label a
    among the [mu block, nu block] traces, the transpose of _readout's
    order; and phase[a] = i^(number of Y in a) for Pauli strings, since
    tr(Y^dag m) = i tr((Z X)^dag m), or None for clock/shift products.
    Read-only."""
    dim = math.prod(site_dims)
    rows = _seal((np.arange(dim) * dim + _couplings(site_dims)).T.copy())
    order = _readout(site_dims, pauli)[1]
    index = _seal(order % dim * dim + order // dim)
    if not pauli:
        return rows, index, None
    single = np.array([1, 1, 1j, 1])
    phase = functools.reduce(np.kron, [single] * len(site_dims))
    return rows, index, _seal(phase)


def _read(t, runs, outer, conj):
    """t read by every run on the block that has outer amplitudes
    before it, with conj(f) if conj else f, each run into a fresh array;
    a caller that holds no name for t lets it go after the first run. A
    real kernel reads the float view, at half the cost of a complex
    one."""
    shape = t.shape
    for pre, r, f, fc in runs:
        f = fc if conj else f
        if f.dtype == float:
            t = (f @ t.view(float).reshape(outer * pre, r, -1)).view(complex)
        else:
            t = f @ t.reshape(outer * pre, r, -1)
    return t.reshape(shape)


def _family_gram_deviation(basis: OperatorBasis) -> float:
    """max |G/d - 1| of the Gram G of a builder basis built without u0,
    from its family's structure alone.

    On a q-level site, tr((Z^mu X^nu)^dag Z^mu' X^nu') = delta(nu, nu')
    sum_j zeta^((mu' - mu) j), so the site's deviation is that of
    K K^dag / q for its kernel K = linalg._kernel(q), exactly 0.0 at
    q = 2 (a Pauli Y is a unit phase times Z X, which leaves |G|
    alone). G is the Kronecker product of the site Grams, so with every
    site but one exact, as on the builders' sites, its deviation is the
    largest of the sites'."""
    return max(float(np.abs(_kernel(q) @ dag(_kernel(q)) / q
                            - np.eye(q)).max())
               for q in set(basis._structure[0]))


def _reference(u0):
    """The circuit's u0: None when it is None or exactly the identity, so
    the circuit skips its two products with it."""
    return None if u0 is None or np.array_equal(u0, np.eye(len(u0))) else u0


def _n_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    return n


def pauli_string(letters: tuple[int, ...]) -> np.ndarray:
    """Tensor product of single-qubit basis operators, indexed 0..3."""
    out = gates.PAULIS[letters[0]]
    for l in letters[1:]:
        out = np.kron(out, gates.PAULIS[l])
    return out


def pauli_strings(n: int) -> np.ndarray:
    """All 4^n Pauli strings on n qubits as one (4^n, 2^n, 2^n) array.

    Entry a is pauli_string of the base-4 digits of a, first qubit most
    significant, which is the pauli_basis ordering. Built with one einsum
    per qubit; not cached, since the table is as large as the basis.
    """
    n = _count(n, "n")
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    single = np.stack(gates.PAULIS)
    table = single
    for _ in range(n - 1):
        a, s = len(table), 2 * table.shape[1]
        table = np.einsum("aij,bkl->abikjl", table, single).reshape(4 * a, s, s)
    return table


def pauli_basis(u0=None, dim: int = 2) -> OperatorBasis:
    """Basis {u0 s_a} from tensor products of the single-qubit operators.

    Ordering is lexicographic in (I, X, Y, Z) per qubit with the identity
    string first, so elements[0] == u0. Without u0 the elements are the
    Pauli strings themselves.

    Parameters
    ----------
    u0 : optional reference unitary (matrix or UnitaryOperator); its
        dimension, which must be a power of two, overrides dim.
    dim : dimension used when u0 is omitted.
    """
    if u0 is not None:
        if np.ndim(getattr(u0, "matrix", u0)) == 0:
            raise ValueError("u0 must be a matrix; pass the dimension "
                             "by keyword, pauli_basis(dim=...)")
        u0 = _unitary(u0, what="u0")
        dim = len(u0)
    n = _n_qubits(_count(dim, "dim"))
    labels = map("".join, itertools.product(gates.PAULI_LABELS, repeat=n))
    return _structured_basis((2,) * n, True, u0, labels)


def clock_shift(dim: int) -> tuple[UnitaryOperator, UnitaryOperator]:
    """The clock and shift pair (Z, X) on C^d.

    Z = sum_j zeta^j |j><j| and X = sum_j |j+1 mod d><j| with
    zeta = exp(2 pi i / d). They satisfy Z^d = X^d = 1 and the commutation
    rule Z X = zeta X Z; at d = 2 they are exactly the z and x Pauli
    matrices. They are the first powers in clock_shift_powers.
    """
    zp, xp = clock_shift_powers(dim)
    return UnitaryOperator(zp[1]), UnitaryOperator(xp[1])


@functools.lru_cache(maxsize=None)
def clock_shift_powers(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """All powers Z^m and X^m, m = 0 .. d-1, as two (d, d, d) arrays.

    Z^m = diag(zeta^(m j)), row m of linalg._kernel(d), and
    X^m|j> = |j + m mod d>. Built once per dimension and returned
    read-only: every caller shares them.
    """
    if dim < 2:
        raise ValueError("clock/shift pair needs dimension >= 2")
    m = np.arange(dim)[:, None]
    j = np.arange(dim)[None, :]
    zp = np.zeros((dim, dim, dim), dtype=complex)
    zp[:, np.arange(dim), np.arange(dim)] = _kernel(dim)
    xp = np.zeros((dim, dim, dim), dtype=complex)
    xp[m, (j + m) % dim, j] = 1.0
    return _seal(zp), _seal(xp)


def _weyl_products(dim: int) -> np.ndarray:
    """Z^mu X^nu at index mu * d + nu, as one (d^2, d, d) array: row i of
    X^nu scaled by the diagonal entry i of Z^mu (+ 0.0 makes the zeros
    positive, the bits of the matrix product)."""
    zp, xp = clock_shift_powers(dim)
    z = np.diagonal(zp, axis1=1, axis2=2)
    products = z[:, None, :, None] * xp + 0.0
    return products.reshape(dim * dim, dim, dim)


def _deviation(basis: OperatorBasis, sigmas) -> int | None:
    """The first element that differs from u0 sigmas[a], u0 = elements[0],
    by more than PRODUCT_FORM_ATOL in some entry, or None when none does."""
    elements = basis.elements
    dev = np.abs(elements - elements[0] @ sigmas).max(axis=(1, 2))
    bad = np.flatnonzero(~(dev <= PRODUCT_FORM_ATOL))
    return int(bad[0]) if bad.size else None


def weyl_basis(dim: int, u0=None) -> OperatorBasis:
    """Basis {u0 Z^mu X^nu} ordered lexicographically by (mu, nu).

    No phase correction is applied to the products: at d = 2 the element
    Z X equals i sigma_y, so the d = 2 Weyl basis is (I, X, Z, iY), which
    matches the Pauli basis up to ordering and that single phase.
    """
    if np.ndim(dim) != 0:
        raise ValueError("dim must be an integer; the reference unitary "
                         "goes second, weyl_basis(d, u0)")
    dim = _count(dim, "dim")
    # as clock_shift_powers refuses it, without building its tables
    if dim < 2:
        raise ValueError("clock/shift pair needs dimension >= 2")
    if u0 is not None:
        u0 = _unitary(u0, dim, "u0")
    labels = [f"Z^{mu}X^{nu}" for mu in range(dim) for nu in range(dim)]
    return _structured_basis((dim,), False, u0, labels)


def _default_basis(dim: int) -> tuple[str, OperatorBasis]:
    """The basis used where none is given, with its kind: the one
    element [[1]] for a single level, the Pauli basis when dim is a
    power of two, the Weyl basis otherwise."""
    if dim == 1:
        return "trivial", OperatorBasis(np.ones((1, 1, 1)), ("I",))
    if dim & (dim - 1) == 0:
        return "pauli", pauli_basis(dim=dim)
    return "weyl", weyl_basis(dim)


def expand(op, basis: OperatorBasis) -> ExpansionCoefficients:
    """Coefficients C_a = (1/d) tr(B_a^dag op) of op over the basis.

    op may be any d x d matrix; sum_a |C_a|^2 equals the squared
    Frobenius norm of op divided by d, which is 1 exactly when op is
    unitary.

    A builder basis is read through its structure, never its stack: the
    product family's one transform of u0^dag op over d (see
    _family_traces), a gather of op's shifted diagonals and one product
    per run of sites with the conjugate unnormalised kernels, the tables
    the echo circuit reads. It agrees with the stack formula
    conj(elements) @ op / d within about 2e-16 times |op|_F / sqrt(d),
    which is 1 for a unitary.
    A basis built directly is read through its elements, bit for bit
    that formula.
    """
    return _filled(ExpansionCoefficients, coeffs=_coefficients(op, basis))


def _coefficients(op, basis: OperatorBasis) -> np.ndarray:
    """The coefficients of expand as a fresh array, for the callers that
    read them and keep no record of them."""
    m = as_matrix(op)
    d = basis.dim
    if m.shape != (d, d):
        raise ValueError(
            f"operator shape {m.shape} does not match basis dim {d}"
        )
    if basis._structure is not None:
        site_dims, pauli, u0 = basis._structure
        coeffs = _family_traces(site_dims, pauli,
                                m if u0 is None else dag(u0) @ m)
    else:
        # conj(E) @ m without conjugating the d^2 x d^2 stack: the
        # conjugate of E @ conj(m), equal to the last bit (IEEE negation
        # is exact)
        flat = basis.elements.reshape(len(basis), -1)
        coeffs = (flat @ m.ravel().conj()).conj()
    return coeffs / d


def reconstruct(coeffs: ExpansionCoefficients, basis: OperatorBasis) -> np.ndarray:
    """Rebuild sum_a C_a B_a from coefficients; inverse of expand."""
    if coeffs.dim != basis.dim:
        raise ValueError("coefficient and basis dimensions differ")
    return np.tensordot(coeffs.coeffs, basis.elements, axes=1)


def rotate_basis(basis: OperatorBasis, k) -> OperatorBasis:
    """New basis A_m = sum_n K_mn B_n for a unitary K (a matrix or a
    UnitaryOperator) of order d^2 on the label space.

    Trace orthogonality is preserved for any unitary K, but the rotated
    elements are in general no longer unitary matrices, which the
    is_unitary flag of the result records. Composition order:
    rotate_basis(rotate_basis(B, k1), k2) == rotate_basis(B, k2 @ k1).
    """
    k = _unitary(k, basis.dim ** 2, "rotation")
    elements = np.tensordot(k, basis.elements, axes=1)
    labels = tuple(f"R{m}" for m in range(len(k)))
    return OperatorBasis(elements, labels)
