"""Schmidt structure of bipartite unitaries and interaction concentration.

A unitary acting on A (x) B expands over products of local orthogonal
unitary bases; the singular values of the coefficient matrix give a
Schmidt form sum_m d_m A_m (x) B_m with trace-orthonormal local
operators, and the entropy of d_m^2 measures how entangling the
interaction is. Many weakly entangling copies can be concentrated: a
collective two-time readout on n copies of alpha 1(x)1 + beta XX
projects onto the sector with k identity slots, leaving an equally
weighted block of C(n, k) terms, so the typical block size grows like
2^(n S).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .gates import X
from .linalg import (
    TRIM,
    _check,
    _frozen,
    _record,
    _sample,
    _unitary,
    as_matrix,
    dag,
    deterministic_eigh,
    shannon_entropy,
)

if TYPE_CHECKING:  # annotations; the functions import what they call
    from .basis import OperatorBasis
    from .channels import KrausMap

SCHMIDT_ATOL = 1e-10
MAX_EXACT_N = 4
MAX_COMB_N = 64


@_record
class BipartiteUnitary:
    """A unitary on two subsystems, factor ordering A (x) B: dims is two
    positive integers (dA, dB) and matrix a read-only copy of the
    (dA dB) x (dA dB) unitary."""

    dims: tuple
    matrix: np.ndarray

    def __post_init__(self):
        try:
            da, db = map(operator.index, self.dims)
        except (TypeError, ValueError):
            da = db = 0
        if min(da, db) < 1 or any(isinstance(x, bool) for x in self.dims):
            raise ValueError(f"dims must be two positive integers, got "
                             f"{self.dims!r}")
        object.__setattr__(self, "dims", (da, db))
        object.__setattr__(self, "matrix", _unitary(self.matrix, da * db))


@_record
class OperatorSchmidt:
    """Schmidt form of an interaction: values and local operator pairs.

    The local operators are trace-orthonormal under (1/d) tr(A^dag B)
    on their own side, each side one read-only (k, d, d) array copied
    from the input; squared values sum to 1 for unitary input.
    """

    values: np.ndarray
    ops_a: np.ndarray
    ops_b: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        _check(abs(v @ v - 1.0), SCHMIDT_ATOL,
               "squared Schmidt values must sum to 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "ops_a", _frozen(self.ops_a))
        object.__setattr__(self, "ops_b", _frozen(self.ops_b))

    def __len__(self) -> int:
        return self.values.size

    def reconstruct(self) -> np.ndarray:
        """sum_m d_m A_m (x) B_m, as one contraction."""
        da, db = self.ops_a.shape[-1], self.ops_b.shape[-1]
        return np.einsum("mij,mkl,m->ikjl", self.ops_a, self.ops_b,
                         self.values).reshape(da * db, da * db)


def _as_bipartite(u, dims=None) -> BipartiteUnitary:
    if isinstance(u, BipartiteUnitary):
        return u
    u = as_matrix(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"interaction must be a square matrix, got shape "
                         f"{u.shape}")
    if dims is None:
        root = math.isqrt(u.shape[0])
        if root * root != u.shape[0]:
            raise ValueError("dims required unless the matrix splits into "
                             "two equal factors")
        dims = (root, root)
    return BipartiteUnitary(dims, u)


def _bases(basis_a, basis_b, da: int, db: int):
    """The given bases, or each side's default basis, checked against the
    interaction's dimensions. basis is imported here, for the default
    only, so the concentration protocol loads without it."""
    from .basis import _default_basis

    ba = basis_a if basis_a is not None else _default_basis(da)[1]
    bb = basis_b if basis_b is not None else _default_basis(db)[1]
    if ba.dim != da or bb.dim != db:
        raise ValueError("basis dimensions do not match the interaction")
    return ba, bb


def bipartite_expand(u, basis_a: OperatorBasis | None = None,
                     basis_b: OperatorBasis | None = None,
                     dims=None) -> np.ndarray:
    """Coefficient matrix C[m, n] = tr((A_m (x) B_n)^dag u)/(dA dB).

    Rows run over the A-side basis, columns over the B side; the
    squared magnitudes sum to 1 for unitary input. With u realigned to
    R[(r, s), (j, t)] = u[(r, j), (s, t)], C = conj(A) R conj(B)^T / (dA dB)
    for the flattened stacked elements A and B: one contraction.
    """
    bu = _as_bipartite(u, dims)
    da, db = bu.dims
    ba, bb = _bases(basis_a, basis_b, da, db)
    realigned = bu.matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3)
    flat_a = ba.elements.reshape(da * da, -1).conj()
    flat_b = bb.elements.reshape(db * db, -1).conj()
    return flat_a @ realigned.reshape(da * da, db * db) @ flat_b.T / (da * db)


def operator_schmidt(u, basis_a: OperatorBasis | None = None,
                     basis_b: OperatorBasis | None = None,
                     dims=None) -> OperatorSchmidt:
    """Diagonalize the coefficient matrix into a Schmidt form.

    Values come out descending; degenerate groups are resolved by the
    deterministic eigenbasis convention so repeated runs agree. Local
    operators mix the basis elements by the singular vectors and are
    generally not unitary, but stay trace orthogonal.
    """
    bu = _as_bipartite(u, dims)
    ba, bb = _bases(basis_a, basis_b, *bu.dims)
    coeff = bipartite_expand(bu, ba, bb)
    w, left = deterministic_eigh(coeff @ dag(coeff))
    keep = w > TRIM
    w, left = w[keep], left[:, keep]
    values = np.sqrt(w)
    right = dag(coeff) @ left / values
    ops_a = np.tensordot(left.T, ba.elements, axes=1)
    ops_b = np.tensordot(right.conj().T, bb.elements, axes=1)
    return OperatorSchmidt(values, ops_a, ops_b)


def interaction_entanglement(u, basis_a=None, basis_b=None, dims=None) -> float:
    """Entropy in bits of the squared Schmidt values of an interaction."""
    schmidt = operator_schmidt(u, basis_a, basis_b, dims)
    return shannon_entropy(schmidt.values ** 2)


def induced_local_map(u, side: str = "A", other_state=None,
                      dims=None) -> KrausMap:
    """CP map seen by one side when the other is fixed and traced out.

    other_state None fixes the traced side in its first basis state; a
    nonzero finite vector, normalized here, fixes it there;
    "maximally_mixed" purifies the traced side instead, giving d^2
    operator elements whose map entropy equals the interaction
    entanglement of u.
    """
    from .channels import KrausMap  # the only use of channels here

    bu = _as_bipartite(u, dims)
    da, db = bu.dims
    u4 = bu.matrix.reshape(da, db, da, db)
    if side == "A":
        d_keep, d_other = da, db
        blocks = u4                           # [r, j, c, t]
    elif side == "B":
        d_keep, d_other = db, da
        blocks = u4.transpose(1, 0, 3, 2)     # [r, j, c, t]
    else:
        raise ValueError("side must be 'A' or 'B'")
    if isinstance(other_state, str):
        if other_state != "maximally_mixed":
            raise ValueError(f"unknown traced-side state {other_state!r}")
        # element (j, t) is the block [:, j, :, t]
        ops = blocks.transpose(1, 3, 0, 2).reshape(-1, d_keep, d_keep)
        return KrausMap(ops / np.sqrt(d_other))
    if other_state is None:
        other_state = np.eye(d_other)[0]
    phi = np.asarray(other_state, dtype=complex).ravel()
    if phi.size != d_other:
        raise ValueError("traced-side state has the wrong dimension")
    norm = np.linalg.norm(phi)
    if not 0 < norm < np.inf:
        raise ValueError(f"traced-side state must be a nonzero finite "
                         f"vector, got norm {norm}")
    phi = phi / norm
    return KrausMap(np.einsum("rjct,t->jrc", blocks, phi))


# ---------------------------------------------------------------------------
# concentration of n copies of alpha 1(x)1 + beta XX


@dataclass(frozen=True)
class ConcentrationRecord:
    """One sector of the collective readout: k identity slots remain, and
    its term_count = C(n, k) terms share the weight 1/sqrt(C(n, k))."""

    n: int
    k: int
    term_count: int
    probability: float


@_record
class ConcentrationDistribution:
    """Full sector law of the collective readout on n copies."""

    n: int
    alpha: complex
    beta: complex
    probabilities: np.ndarray
    records: tuple
    mode: str
    sector_deviation: float | None = None
    samples: np.ndarray | None = None

    def yield_bits(self) -> float:
        """Expected bits of block size: sum_k P(k) log2 C(n, k)."""
        return math.fsum(
            r.probability * math.log2(r.term_count) for r in self.records
        )

    def expected_term_count(self) -> float:
        """Expected number of equally weighted surviving terms,
        sum_k P(k) C(n, k)."""
        return math.fsum(r.probability * r.term_count for r in self.records)


def _normalize_amplitudes(alpha, beta):
    alpha = complex(alpha)
    beta = (
        complex(np.sqrt(max(0.0, 1.0 - abs(alpha) ** 2)))
        if beta is None
        else complex(beta)
    )
    _check(abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0), SCHMIDT_ATOL,
           "|alpha|^2 + |beta|^2 is not 1")
    return alpha, beta


def _sector_probabilities(n, alpha, beta):
    pa, pb = abs(alpha) ** 2, abs(beta) ** 2
    return np.array([
        math.comb(n, k) * pa ** k * pb ** (n - k) for k in range(n + 1)
    ])


def _pair_block(alpha, beta):
    return alpha * np.eye(4, dtype=complex) + beta * np.kron(X, X)


def concentration_sectors(n, alpha, beta=None):
    """Exact sector components G_k of the n-copy interaction (n <= 4).

    Qubits are ordered pairwise (A1, B1, A2, B2, ...). Per copy, the
    two-time readout conjugates the block by sigma_z on the A qubit:
    identity slots commute with it (+1), XX slots anticommute (-1), so
    the joint operator splits into sectors graded by the number of +1
    copies. Entry (i, j) of the operator carries the sign +1 in a copy
    when basis states i and j agree on that copy's A qubit, so G_k keeps
    the entries whose indices agree on exactly k A qubits and zeroes the
    rest: a mask over the 4^n x 4^n operator, with no projection. Returns
    the list G_0..G_n with sum_k G_k equal to the full n-copy operator.
    """
    alpha, beta = _normalize_amplitudes(alpha, beta)
    if not 1 <= n <= MAX_EXACT_N:
        raise ValueError(f"exact sectors need 1 <= n <= {MAX_EXACT_N}")
    block = _pair_block(alpha, beta)
    full = block
    for _ in range(n - 1):
        full = np.kron(full, block)
    nq = 2 * n
    index = np.arange(2 ** nq)
    agree = np.zeros(full.shape, dtype=int)
    for copy in range(n):
        bit = (index >> (nq - 1 - 2 * copy)) & 1
        agree += bit[:, None] == bit[None, :]
    return [np.where(agree == k, full, 0) for k in range(n + 1)]


def concentrate(n, alpha, beta=None, mode: str = "combinatorial",
                seed=None, shots: int = 0) -> ConcentrationDistribution:
    """Sector law of the collective two-time readout on n copies.

    Combinatorial mode evaluates P(k) = C(n,k) |alpha|^{2k}
    |beta|^{2(n-k)} exactly up to n = 64. Exact-matrix mode (n <= 4)
    additionally builds the 4^n-dimensional operator, splits it into
    the readout sectors (concentration_sectors), and records the largest deviation between the
    sector weights and the combinatorial law. With shots > 0 a seeded
    stream draws that many sector outcomes.
    """
    alpha, beta = _normalize_amplitudes(alpha, beta)
    if n < 1:
        raise ValueError("n must be at least 1")
    caps = {"exact-matrix": MAX_EXACT_N, "combinatorial": MAX_COMB_N}
    if mode not in caps:
        raise ValueError("mode must be 'exact-matrix' or 'combinatorial'")
    if n > caps[mode]:
        raise ValueError(f"{mode} mode capped at n = {caps[mode]}")
    probs = _sector_probabilities(n, alpha, beta)
    deviation = None
    if mode == "exact-matrix":
        sectors = concentration_sectors(n, alpha, beta)
        weights = np.array([np.linalg.norm(g) ** 2 for g in sectors])
        weights /= weights.sum()
        deviation = float(np.abs(weights - probs).max())
    records = tuple(
        ConcentrationRecord(n, k, math.comb(n, k), float(probs[k]))
        for k in range(n + 1)
    )
    samples = None
    if shots:
        samples = _sample(probs, shots, seed)
    return ConcentrationDistribution(
        n, alpha, beta, probs, records, mode, deviation, samples
    )
