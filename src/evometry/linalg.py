"""Small dense linear-algebra helpers shared across the package, and the
one home of its shared conventions: the declaration of the records that
hold arrays (_record), the records (M (x) 1)|phi+> of a stack, the
fail-closed residual check, the isometry deviation, the check of every
unitary input (_unitary, within UNITARY_ATOL), the seeded sampler and
the spectral tolerances."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "as_matrix",
    "dag",
    "is_unitary",
    "random_unitary",
    "random_state",
    "max_entangled",
    "partial_trace",
    "entanglement_entropy",
    "shannon_entropy",
    "phase_fixed",
    "deterministic_eigh",
]


def as_matrix(op) -> np.ndarray:
    """Coerce an operator-like object (wrapper or array) to a complex ndarray."""
    return np.asarray(getattr(op, "matrix", op), dtype=complex)


def _frozen(a) -> np.ndarray:
    """A read-only complex copy of a, for records that own their arrays."""
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _arrays_equal(a, b):
    """== for the frozen array records: the same type, and every compared
    field of equal shape and equal entries."""
    if type(a) is not type(b):
        return NotImplemented
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.compare and not (np.shape(x) == np.shape(y)
                              and np.array_equal(x, y)):
            return False
    return True


def _record(cls):
    """Declare a record that holds arrays: a frozen dataclass compared by
    _arrays_equal, unhashable unless its body defines __hash__ (over
    read-only arrays, consistent with ==)."""
    cls.__eq__ = _arrays_equal
    if "__hash__" not in vars(cls):
        cls.__hash__ = None
    return dataclass(frozen=True, eq=False)(cls)


def _prechecked(cls, *columns) -> list:
    """One instance of the frozen dataclass cls per row of the columns,
    which are given in field order. Each is filled as its __init__ fills
    it, but __post_init__ is not run: for batch builders that have
    already checked every value at once."""
    names = [f.name for f in fields(cls)]
    new, put = object.__new__, object.__setattr__
    out = []
    for values in zip(*columns):
        obj = new(cls)
        for name, value in zip(names, values):
            put(obj, name, value)
        out.append(obj)
    return out


def _array_hash(a: np.ndarray) -> int:
    """Hash of a read-only array consistent with _arrays_equal: equal
    shapes and entries hash alike (+ 0.0 turns -0.0 into 0.0, which
    compare equal)."""
    return hash((a.shape, (a + 0.0).tobytes()))


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


# largest entry of U^dag U - 1 that a unitary may have
UNITARY_ATOL = 1e-10


def is_unitary(a: np.ndarray) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return _isometry_deviation(a) <= UNITARY_ATOL


def _unitary(u, dim: int | None = None, what: str = "matrix") -> np.ndarray:
    """The check of every unitary input: a read-only complex copy of u
    (of u.matrix for a record). ValueError, naming what, unless it is a
    square matrix, of size dim when dim is given, whose isometry
    deviation is at most UNITARY_ATOL (a NaN is refused)."""
    m = _frozen(getattr(u, "matrix", u))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape "
                         f"{m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"{what} has dim {m.shape[0]}, expected {dim}")
    _check(_isometry_deviation(m), UNITARY_ATOL, f"{what} is not unitary")
    return m


def _isometry_deviation(a) -> float:
    """Largest entry of A^dag A - 1 for a matrix or each matrix of a
    stack: 0 when the columns are orthonormal. Pass dag(A) to test the
    rows instead (A A^dag = 1)."""
    a = np.asarray(a)
    return float(np.abs(a.conj().swapaxes(-1, -2) @ a
                        - np.eye(a.shape[-1])).max())


def _check(dev, tol: float, what: str) -> None:
    """Fail closed on a residual: raise ValueError(what) unless
    dev <= tol, so a NaN residual is rejected too. The message, with the
    deviation, is formatted only when it is raised."""
    if not dev <= tol:
        raise ValueError(f"{what} (deviation {dev:.3e})")


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    rng may be a Generator or a seed.
    """
    rng = np.random.default_rng(rng)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng) -> np.ndarray:
    """Haar-random unit vector. rng may be a Generator or a seed."""
    rng = np.random.default_rng(rng)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _records(stack) -> np.ndarray:
    """The records (M (x) 1)|phi+> of a (k, d, d) stack as the rows of a
    k x d^2 matrix: each is M flattened row-major over sqrt(d)."""
    d = stack.shape[-1]
    return stack.reshape(len(stack), d * d) / np.sqrt(d)


@functools.lru_cache(maxsize=None)
def _fourier(n: int) -> np.ndarray:
    """The n x n Fourier matrix zeta^(j k) / sqrt(n), zeta = exp(2 pi i / n),
    which is the diagonals of basis.clock_shift_powers(n) over sqrt(n),
    computed the same way. Built once per n and read-only; n = 1 gives
    [[1]], a one-level register.
    """
    if n == 1:
        return _frozen(np.ones((1, 1)))
    jk = np.arange(n)[:, None] * np.arange(n)[None, :] % n
    return _frozen(np.exp(2j * np.pi / n) ** jk / np.sqrt(n))


def max_entangled(dim: int) -> np.ndarray:
    """(1/sqrt(d)) sum_j |j>|j> as a vector on C^d (x) C^d."""
    v = np.zeros(dim * dim, dtype=complex)
    v[:: dim + 1] = 1 / math.sqrt(dim)
    return v


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite density matrix.

    dims gives the factor dimensions in kron order and keep selects the
    surviving factor (0 or 1).
    """
    da, db = dims
    r = np.asarray(rho).reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError("keep must be 0 or 1")


def entanglement_entropy(psi: np.ndarray, dims: tuple[int, int]) -> float:
    """Entanglement entropy (base 2) of a bipartite pure state vector."""
    s = np.linalg.svd(np.asarray(psi).reshape(dims), compute_uv=False)
    p = s * s
    return shannon_entropy(p[p > 1e-15])


def shannon_entropy(p) -> float:
    """Shannon entropy in bits; zero-probability entries are skipped.

    Never negative: a weight rounded just above 1 reads 0.0.
    """
    p = np.asarray(p, dtype=float)
    nz = p[p > 1e-15]
    return max(0.0, float(-(nz * np.log2(nz)).sum()))


def _sample(probs, shots: int, seed) -> np.ndarray:
    """Draw shots outcome indices from the weights probs, normalized.

    Sampling is never unseeded: a missing seed is an error whenever
    anything is drawn.
    """
    if seed is None and shots:
        raise ValueError("a seed is required for sampling")
    p = np.asarray(probs, dtype=float)
    rng = np.random.default_rng(seed)
    return rng.choice(p.size, size=shots, p=p / p.sum())


# weights at or below this are zero and are trimmed from spectra
TRIM = 1e-12
# entries within this relative distance of the largest magnitude tie
PHASE_TIE_RTOL = 1e-9
# eigenvalues this close to the first of a group are one degenerate level
DEGENERACY_TOL = 1e-10


def _phase_anchors(mag: np.ndarray) -> np.ndarray:
    """Per column of magnitudes, the first entry that ties the column
    maximum, so rounding in the last bits never picks the anchor."""
    return np.argmax(mag >= (1 - PHASE_TIE_RTOL) * mag.max(axis=0), axis=0)


def phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rescale a vector's global phase so its largest-magnitude entry is
    real and positive.

    Entries whose magnitudes lie within a relative 1e-9 of the largest
    tie, and the first of them is the one made real and positive.
    """
    k = int(_phase_anchors(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v * ph.conj()


def deterministic_eigh(h: np.ndarray):
    """Hermitian eigendecomposition with eigenvalues descending and a
    deterministic gauge inside degenerate eigenspaces.

    Within each group of eigenvalues that agree to DEGENERACY_TOL, the
    eigenvectors are rebuilt by projecting the canonical basis vectors
    e_0, e_1, ... onto the eigenspace and Gram-Schmidt orthonormalizing
    them in that order; each resulting vector has its global phase fixed
    by phase_fixed. The output therefore does not depend on the
    arbitrary rotation LAPACK picks inside a degenerate block, nor on
    rounding: phase_fixed anchors each vector at the first entry within
    a relative 1e-9 of its largest magnitude.

    The Gram-Schmidt is computed as a QR: the projection of e_k onto an
    m-wide block V is V conj(V[k]), so the result is V Q for the QR of
    the m x m matrix V[:m]^dag. Only a block where one of those
    projections is dependent (below 1e-6) is processed column by column.
    """
    vals, vecs = np.linalg.eigh(np.asarray(h))
    return _fix_gauge(vals[::-1], vecs[:, ::-1])


def _fix_gauge(vals, vecs, floor=None):
    """The gauge step of deterministic_eigh, applied to a descending
    eigendecomposition (vecs is not modified).

    A group is anchored at its first (largest) value and takes every
    later value within an absolute DEGENERACY_TOL of that anchor, so
    groups do not chain. This is the contract at the tolerance's edge: a
    value within DEGENERACY_TOL of the null block (a kept channel weight
    below about 1e-10, say) is gauged together with it, one just beyond
    is gauged alone, and which side a value at the edge falls on is
    decided by rounding.

    With a floor, only the groups whose first (largest) value exceeds it
    are gauged, and only the eigenpairs with values above it are
    returned. A group that straddles the floor is gauged whole, so the
    result equals gauging everything and then trimming.
    """
    vals = vals.copy()
    vecs = vecs.copy()
    n = vals.size if floor is None else int(np.count_nonzero(vals > floor))
    stop = 0
    # a group runs from its first value while later ones agree with it
    for i in np.flatnonzero(np.abs(np.diff(vals)) <= DEGENERACY_TOL):
        if i >= n:
            break
        if i < stop:
            continue
        stop = i + 1
        while stop < vals.size and abs(vals[stop] - vals[i]) <= DEGENERACY_TOL:
            stop += 1
        block = vecs[:, i:stop]
        q, r = np.linalg.qr(block[: stop - i].conj().T)
        if np.abs(np.diagonal(r)).min() > 1e-6:
            vecs[:, i:stop] = block @ q
        else:
            vecs[:, i:stop] = _projection_gram_schmidt(block)
    vals, vecs = vals[:n], vecs[:, :n]
    # phase_fixed, applied to every column at once
    top = vecs[_phase_anchors(np.abs(vecs)), np.arange(n)]
    return vals, vecs * (top / np.abs(top)).conj()


def _projection_gram_schmidt(block: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the projections of e_0, e_1, ... onto the span of
    the isometry block, one column at a time, skipping projections of
    norm 1e-6 or less."""
    m = block.shape[1]
    cols: list[np.ndarray] = []
    # when too few projections survive (ill-conditioned), fall back to the
    # LAPACK block, orthogonalized against whatever was already accepted
    for candidates, floor in ((block @ dag(block), 1e-6), (block, 1e-8)):
        for v in candidates.T:
            if len(cols) == m:
                break
            for c in cols:
                v = v - c * np.vdot(c, v)
            nv = np.linalg.norm(v)
            if nv > floor:
                cols.append(v / nv)
    return np.stack(cols, axis=1)
