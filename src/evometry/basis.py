"""Orthogonal operator bases and expansion of evolutions over them.

A basis here is a family of d^2 operators B_0 .. B_{d^2-1} on C^d that are
orthogonal in the trace inner product, tr(B_a^dag B_b) = d delta_ab, with the
distinguished element B_0 playing the role of the reference evolution U_0.
Any operator U on C^d expands as U = sum_a C_a B_a with
C_a = (1/d) tr(B_a^dag U), and for unitary U the weights |C_a|^2 form a
probability distribution over the basis elements.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import field

import numpy as np

from . import gates
from .linalg import (
    UNITARY_ATOL,
    _array_hash,
    _check,
    _frozen,
    _isometry_deviation,
    _record,
    _unitary,
    as_matrix,
)

# largest entry by which an element may differ from u0 s_a and still be
# the product the echo circuit measures
PRODUCT_FORM_ATOL = 1e-9


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
    """Coefficients C_a of an operator over an orthogonal basis."""

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).ravel()
        if c.size != self.dim * self.dim:
            raise ValueError(
                f"expected {self.dim ** 2} coefficients, got {c.size}"
            )
        object.__setattr__(self, "coeffs", c)

    def probabilities(self) -> np.ndarray:
        """|C_a|^2 for every basis element."""
        return np.abs(self.coeffs) ** 2


@_record
class OperatorBasis:
    """d^2 trace-orthogonal operators on C^d, reference element first.

    elements[0] is u0 itself whenever a reference unitary was supplied
    (checked within 1e-10); u0 is stored as a UnitaryOperator, which
    owns a read-only copy of its matrix. is_unitary is computed, not
    passed: whether every element is unitary within 1e-10, which is what
    makes the which-element measurement a measurement over unitaries.
    elements is one read-only (d^2, d, d) array, copied from the input,
    so a basis never changes after it is checked. Bases with equal
    fields are equal and hash alike.
    """

    dim: int
    elements: np.ndarray
    labels: tuple
    u0: UnitaryOperator | None = None
    is_unitary: bool = field(init=False)

    def __post_init__(self):
        d = self.dim
        elements = _frozen(self.elements)
        if elements.shape != (d * d, d, d):
            raise ValueError(f"need {d * d} elements of shape ({d}, {d}) "
                             f"for dim {d}, got shape {elements.shape}")
        if len(self.labels) != d * d:
            raise ValueError("one label per element required")
        _check(np.abs(gram(elements) - d * np.eye(d * d)).max(),
               UNITARY_ATOL, "elements are not trace-orthogonal")
        u0 = self.u0
        if u0 is not None:
            if not isinstance(u0, UnitaryOperator):
                u0 = UnitaryOperator(u0)
            if u0.dim != d:
                raise ValueError(f"u0 has dim {u0.dim}, expected {d}")
            _check(np.abs(elements[0] - u0.matrix).max(), UNITARY_ATOL,
                   "elements[0] is not u0")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "is_unitary", bool(
            _isometry_deviation(elements) <= UNITARY_ATOL))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "u0", u0)

    def __hash__(self) -> int:
        return _array_hash(self.elements)

    # The echo circuit's product-form checks, run on first use for each
    # family and memoised: a basis is frozen, so a check it passed holds
    # for good, while a failed check raises and is run again next time.
    # Neither is a field, so neither takes part in ==.
    @functools.cached_property
    def _pauli_form(self) -> float:
        """Worst deviation of elements[a] from u0 @ pauli_strings(n)[a]."""
        return _product_form(self, pauli_strings(_n_qubits(self.dim)))

    @functools.cached_property
    def _weyl_form(self) -> float:
        """Worst deviation of elements[a] from u0 Z^mu X^nu, a = mu d + nu."""
        return _product_form(self, _weyl_products(self.dim))

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, a: int) -> np.ndarray:
        return self.elements[a]


def gram(elements) -> np.ndarray:
    """Trace-inner-product Gram matrix tr(B_a^dag B_b), as one product of
    the flattened elements."""
    flat = np.reshape(elements, (len(elements), -1))
    return flat.conj() @ flat.T


def _reference(u0, dim: int) -> np.ndarray:
    """The reference unitary's matrix, or the identity when there is none."""
    return np.eye(dim, dtype=complex) if u0 is None else as_matrix(u0)


def _n_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
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
    string first, so elements[0] == u0. Without u0 the reference is the
    identity.

    Parameters
    ----------
    u0 : optional reference unitary (matrix or UnitaryOperator); its
        dimension, which must be a power of two, overrides dim.
    dim : dimension used when u0 is omitted.
    """
    if u0 is not None:
        if not isinstance(u0, UnitaryOperator):
            if np.ndim(u0) == 0:
                raise ValueError("u0 must be a matrix; pass the dimension "
                                 "by keyword, pauli_basis(dim=...)")
            u0 = UnitaryOperator(u0)
        dim = u0.dim
    n = _n_qubits(dim)
    ref = _reference(u0, dim)
    labels = [
        "".join(gates.PAULI_LABELS[l] for l in letters)
        for letters in itertools.product(range(4), repeat=n)
    ]
    return OperatorBasis(dim, ref @ pauli_strings(n), tuple(labels), u0=u0)


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

    Z^m = diag(zeta^(m j)) with the exponent reduced mod d, and
    X^m|j> = |j + m mod d>. Built once per dimension and returned
    read-only: every caller shares them.
    """
    if dim < 2:
        raise ValueError("clock/shift pair needs dimension >= 2")
    m = np.arange(dim)[:, None]
    j = np.arange(dim)[None, :]
    zeta = np.exp(2j * np.pi / dim)
    zp = np.zeros((dim, dim, dim), dtype=complex)
    zp[:, np.arange(dim), np.arange(dim)] = zeta ** ((m * j) % dim)
    xp = np.zeros((dim, dim, dim), dtype=complex)
    xp[m, (j + m) % dim, j] = 1.0
    return _frozen(zp), _frozen(xp)


def _weyl_products(dim: int) -> np.ndarray:
    """Z^mu X^nu at index mu * d + nu, as one (d^2, d, d) array."""
    zp, xp = clock_shift_powers(dim)
    return np.einsum("mij,njk->mnik", zp, xp).reshape(dim * dim, dim, dim)


def _product_form(basis: OperatorBasis, sigmas) -> float:
    """Largest entry of |B_a - u0 sigmas[a]|; a ValueError naming the
    first element that deviates by more than PRODUCT_FORM_ATOL."""
    ref = _reference(basis.u0, basis.dim)
    dev = np.abs(basis.elements - ref @ sigmas).max(axis=(1, 2))
    bad = np.flatnonzero(~(dev <= PRODUCT_FORM_ATOL))
    if bad.size:
        raise ValueError(
            "basis is not of the product form {u0 s_a} this circuit "
            f"measures (element {bad[0]} deviates)"
        )
    return float(dev.max())


def weyl_basis(dim: int, u0=None) -> OperatorBasis:
    """Basis {u0 Z^mu X^nu} ordered lexicographically by (mu, nu).

    No phase correction is applied to the products: at d = 2 the element
    Z X equals i sigma_y, so the d = 2 Weyl basis is (I, X, Z, iY), which
    matches the Pauli basis up to ordering and that single phase.
    """
    if np.ndim(dim) != 0:
        raise ValueError("dim must be an integer; the reference unitary "
                         "goes second, weyl_basis(d, u0)")
    products = _weyl_products(dim)
    if u0 is not None:
        u0 = UnitaryOperator(_unitary(u0, dim, "u0"))
    ref = _reference(u0, dim)
    labels = [f"Z^{mu}X^{nu}" for mu in range(dim) for nu in range(dim)]
    return OperatorBasis(dim, ref @ products, tuple(labels), u0=u0)


def _default_basis(dim: int) -> tuple[str, OperatorBasis]:
    """The basis used where none is given, with its kind: the one
    element [[1]] for a single level, the Pauli basis when dim is a
    power of two, the Weyl basis otherwise."""
    if dim == 1:
        return "trivial", OperatorBasis(1, np.ones((1, 1, 1)), ("I",))
    if dim & (dim - 1) == 0:
        return "pauli", pauli_basis(dim=dim)
    return "weyl", weyl_basis(dim)


def expand(op, basis: OperatorBasis) -> ExpansionCoefficients:
    """Coefficients C_a = (1/d) tr(B_a^dag op) of op over the basis.

    op may be any d x d matrix; sum_a |C_a|^2 equals the squared
    Frobenius norm of op divided by d, which is 1 exactly when op is
    unitary.
    """
    m = as_matrix(op)
    if m.shape != (basis.dim, basis.dim):
        raise ValueError(
            f"operator shape {m.shape} does not match basis dim {basis.dim}"
        )
    coeffs = basis.elements.reshape(len(basis), -1).conj() @ m.ravel()
    return ExpansionCoefficients(basis.dim, coeffs / basis.dim)


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
    return OperatorBasis(basis.dim, elements, labels)
