"""Small dense linear-algebra helpers shared across the package, and the
one home of its shared conventions: the declaration and lifecycle of the
records that hold arrays (_record, _held, _filled), the one freeze
(_seal: every read-only array of the package, a record's or a cached
table's, is sealed there, a read-only view of a read-only array, so
setflags(write=True) is refused), the records
(M (x) 1)|phi+> of a stack, the fail-closed residual check, the isometry
deviation, the check of every unitary input (_checked_unitary, within
UNITARY_ATOL, in place: a call that only reads its unitary checks the
caller's array and keeps no copy of it, while the records and builders
that keep one take _unitary, the same check on a sealed copy), the
check of every count, seed and n argument (_count,
and _seed for seeds) and of every index (_index), the check of every
weight vector drawn from (_weights), the seeded draw (_draw), its tally
(_tally: the counts alone, for the callers that read no per-shot order)
and sampler (_sample), and the spectral tolerances."""
from __future__ import annotations

import functools
import math
import operator
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


def _seal(a: np.ndarray) -> np.ndarray:
    """The package's one freeze: a, a fresh array that nothing else
    writes, made read-only in place, with the array that owns its memory
    when a is a view, and returned as a view of it. An array is sealed
    when it is a view of a read-only array, as is every row or slice of
    a sealed one: numpy refuses setflags(write=True) on it."""
    if a.base is not None:
        a.base.setflags(write=False)
    a.setflags(write=False)
    return a.view()


def _frozen(a, dtype=complex) -> np.ndarray:
    """A sealed copy of a (see _seal), complex unless dtype is given."""
    return _seal(np.array(a, dtype=dtype))


def _equal(x, y) -> bool:
    """The one == of record fields and builder arguments: equal shapes
    and equal entries (a nested record by its own ==)."""
    return np.shape(x) == np.shape(y) and bool(np.array_equal(x, y))


def _arrays_equal(a, b):
    """== for the array records: the same type, and then the same builder
    call when both were made by one, else every compared field _equal."""
    if type(a) is not type(b):
        return NotImplemented
    sa, sb = vars(a).get("_source"), vars(b).get("_source")
    if sa is not None and sb is not None:
        # one builder always passes the same number of arguments
        return sa[0] is sb[0] and all(map(_equal, sa[1], sb[1]))
    return all(_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a) if f.compare)


def _rebuild(self):
    """__reduce__ of the array records: see _record."""
    return vars(self).get("_source") or (
        type(self), tuple(getattr(self, f.name) for f in fields(self)))


def _record(cls):
    """Declare a record that holds arrays, with one lifecycle. It is a
    frozen dataclass compared by _arrays_equal, unhashable unless its
    body defines __hash__ (over read-only arrays, consistent with ==).
    Every array it holds is sealed (_seal), however it was made: after
    its validator, if it has one, each array field is replaced by a
    sealed copy unless the validator replaced it by its own sealed copy
    (_frozen, _unitary), so a validator that converts an input seals its
    own copy and one that only reads it leaves the copy to the record.
    An input is copied even when it is a view of a read-only array, whose
    owner its caller may open again, so no caller can write to a record
    built directly. The values of _filled and _held and each built field
    are sealed in place. A field that a record may hold in a
    cheaper form is built on its first read by the class's
    _build_<field> method (a functools.cached_property) when the record
    does not hold it. A builder may make a record by _held: it keeps its
    source, the call (builder, args) that makes it again, and in place
    of its first field the state from which that field is built. A call
    that has checked every field itself may make it by _filled, which
    runs no validator. Two records made by builders compare their
    sources, any other pair their fields. A copy, a deepcopy, a pickle
    or a dataclasses.replace is rebuilt through the checks, by the
    source or else by the constructor from the fields, so it starts with
    no memo and holds the arrays its constructor makes."""
    # the array fields, read from the annotations before dataclass() so
    # that its __init__ calls the sealing __post_init__ of every class
    # that holds arrays, whether or not it has a validator
    arrays = [name for name, kind in vars(cls).get("__annotations__", {})
              .items() if "ndarray" in str(kind)]
    if arrays:
        check = vars(cls).get("__post_init__", lambda self: None)

        def __post_init__(self):
            given = [getattr(self, name) for name in arrays]
            check(self)
            for name, a in zip(arrays, given):
                b = getattr(self, name)
                # kept only as the validator's own sealed copy: an input,
                # even a view of a read-only array, may have an owner that
                # its caller can open again
                if b is not None and (b is a or b.flags.writeable):
                    object.__setattr__(self, name, _seal(np.array(b)))
        cls.__post_init__ = __post_init__
    cls.__eq__ = _arrays_equal
    if "__hash__" not in vars(cls):
        cls.__hash__ = None
    cls.__reduce__ = _rebuild
    cls = dataclass(frozen=True, eq=False)(cls)
    for f in fields(cls):
        build = vars(cls).get(f"_build_{f.name}")
        if build is not None:
            built = functools.cached_property(_sealed_build(build))
            built.__set_name__(cls, f.name)
            setattr(cls, f.name, built)
    return cls


def _sealed_build(build):
    """A _build_<field> method whose array, when it builds one, is
    sealed."""
    def sealed(self):
        a = build(self)
        return a if a is None else _seal(a)
    return sealed


def _filled(cls, **values):
    """A record of cls holding values that its caller has already
    checked, made without running its validator; a field not given keeps
    its default. Its arrays are the caller's fresh ones, sealed in place
    (_seal), not copied; a read-only view, which a caller passes only as
    a row of a sealed array, is kept as it is. A copy or a pickle of it
    is rebuilt through the checks all the same (see _record)."""
    for name, a in values.items():
        if isinstance(a, np.ndarray) and (a.base is None or a.flags.writeable):
            values[name] = _seal(a)
    record = object.__new__(cls)
    vars(record).update(values)
    return record


def _held(cls, source, **state):
    """A record of cls made by a builder: source is the call
    (builder, args) that makes it again, state the attributes it holds
    in place of its first field, its arrays sealed (see _record)."""
    return _filled(cls, _source=source, **state)


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


def _checked_unitary(u, dim: int | None = None, what: str = "matrix",
                     tol: float = UNITARY_ATOL) -> np.ndarray:
    """The check of every unitary input, in place: u (u.matrix for a
    record) as a complex array, the caller's own when it is one, not
    copied. ValueError, naming what, unless it is a square matrix, of
    size dim when dim is given, whose isometry deviation is at most tol,
    UNITARY_ATOL unless given (a NaN is refused). A call that keeps no
    part of u reads it so; one that keeps u takes _unitary's copy."""
    m = as_matrix(u)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape "
                         f"{m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"{what} has dim {m.shape[0]}, expected {dim}")
    _check(_isometry_deviation(m), tol, f"{what} is not unitary")
    return m


def _unitary(u, dim: int | None = None, what: str = "matrix",
             tol: float = UNITARY_ATOL) -> np.ndarray:
    """The unitary that a record or a builder keeps: a sealed complex
    copy of u (of u.matrix for a record), taken before it is checked by
    _checked_unitary, so no later write to u reaches it."""
    return _checked_unitary(_frozen(getattr(u, "matrix", u)), dim, what, tol)


def _isometry_deviation(a) -> float:
    """Largest entry of A^dag A - 1 for a matrix or each matrix of a
    stack: 0 when the columns are orthonormal. Pass dag(A) to test the
    rows instead (A A^dag = 1). The 1 is taken off the diagonal of the
    fresh Gram in place."""
    a = np.asarray(a)
    g = a.conj().swapaxes(-1, -2) @ a
    if g.dtype.kind not in "fc":
        # a bool or integer Gram subtracts in floats, as np.eye's did
        g = g.astype(float)
    n = g.shape[-1]
    # g is fresh and C-contiguous, so the flat reshape is a view of it
    g.reshape(g.shape[:-2] + (n * n,))[..., ::n + 1] -= 1
    return float(np.abs(g).max())


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
def _kernel(n: int) -> np.ndarray:
    """The unnormalised n x n Fourier kernel zeta^(j k), zeta =
    exp(2 pi i / n), read from the powers zeta^m at m = jk mod n: the
    package's one copy of that formula. The quarter turns, 4 m / n whole,
    are exactly 1, i, -1 and -i, so at n = 2 it is exactly [[1, 1],
    [1, -1]] and basis.clock_shift(2) gives exactly the Pauli z. Its
    rows are the diagonals of the clock powers (basis.clock_shift_powers),
    its conjugate reads the clock/shift traces and the echo circuit's
    readout, and over sqrt(n) it is _fourier. Unnormalised, K K^dag =
    n 1, so a product with it carries no 1/sqrt(n) rounding. Built once
    per n and read-only; n = 1 gives [[1]]."""
    m = np.arange(n)
    powers = np.exp(2j * np.pi / n) ** m
    turns = 4 * m % n == 0
    # +0.0 real parts: the literal -1j would carry a -0.0
    powers[turns] = np.array([1, 1j, -1, complex(0, -1)])[4 * m[turns] // n]
    return _seal(powers[m[:, None] * m % n])


@functools.lru_cache(maxsize=None)
def _fourier(n: int) -> np.ndarray:
    """The unitary n x n Fourier matrix, _kernel(n) / sqrt(n): the
    ancilla readout basis of channels and the branch transform of
    storage. Built once per n and read-only; n = 1 gives [[1]], a
    one-level register.
    """
    return _seal(_kernel(n) / np.sqrt(n))


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


def _count(value, name: str) -> int:
    """The check of every count, seed and n argument: value as an int when
    it is a non-negative integer, a numpy integer included. Anything else,
    a bool, a float (NaN or whole) or a negative, is a ValueError naming
    the argument."""
    try:
        n = operator.index(value)
    except TypeError:
        n = -1
    if n < 0 or isinstance(value, bool):
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}")
    return n


def _index(value, count: int, name: str) -> int:
    """The check of every index into a map's count elements: _count's,
    and below count. Anything else is a ValueError naming the argument
    and the count."""
    try:
        i = _count(value, name)
    except ValueError:
        i = count
    if i >= count:
        raise ValueError(f"{name} {value!r} outside the map's {count} "
                         f"elements: indices must be integers in "
                         f"0..{count - 1}")
    return i


def _seed(seed, shots: int):
    """The check of every seed: seed as an int, or None when it is None
    and nothing is drawn. Sampling is never unseeded: a missing seed is
    an error whenever shots > 0, and a seed must be a non-negative
    integer (_count), which is checked even when shots is 0."""
    if seed is None:
        if shots:
            raise ValueError("a seed is required for sampling")
        return None
    return _count(seed, "seed")


def _cdf(p, total: float) -> np.ndarray:
    """The CDF of the checked weights p, whose sum is total, ending at
    exactly 1."""
    # the method, not np.cumsum: the same sum without the dispatch
    cdf = (p / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(p, total: float, shots: int, seed: int) -> np.ndarray:
    """shots outcome indices drawn from the checked weights p, whose sum
    is total (1-D, finite, non-negative, 0 < total < inf), with the
    checked seed: the inverse CDF of default_rng(seed).random(shots), the
    same draws, bit for bit, as Generator.choice. Every index lies in
    0..len(p) - 1, since the CDF ends at exactly 1."""
    return _cdf(p, total).searchsorted(
        np.random.default_rng(seed).random(shots), side="right")


def _tally(p, total: float, shots: int, seed: int) -> np.ndarray:
    """The count of each index among _draw(p, total, shots, seed), bit
    for bit np.bincount of those draws with minlength len(p), without
    drawing them one by one: the keys are sorted once and each of the
    len(p) CDF entries is searched among them. A key lands on index k
    when cdf[k - 1] <= key < cdf[k], so the keys below cdf[k] are those
    on indices 0..k, and the count of k is the difference of two such
    numbers. One sort and len(p) searches replace shots searches of
    the CDF."""
    keys = np.random.default_rng(seed).random(shots)
    keys.sort()
    below = keys.searchsorted(_cdf(p, total))
    # an explicit copy: cheaper than numpy's own for an overlapping operand
    below[1:] -= below[:-1].copy()
    return below


def _weights(probs):
    """The check of every weight vector drawn from: (p, total), probs as
    floats and their sum, when they are 1-D, finite, non-negative and not
    all zero with a finite sum, else a ValueError and no numpy
    warning."""
    p = np.asarray(probs, dtype=float)
    total = 0.0
    # a NaN fails min() >= 0, and no sum is taken over a negative; a sum
    # that overflows is inf, refused below without numpy's warning
    if p.ndim == 1 and p.size and p.min() >= 0:
        with np.errstate(over="ignore"):
            total = p.sum()
    if not 0 < total < np.inf:
        raise ValueError("weights must be a 1-D array of finite, "
                         "non-negative numbers, not all zero")
    return p, total


def _sample(probs, shots: int, seed) -> np.ndarray:
    """Draw shots outcome indices from the weights probs, normalized: the
    seed checked by _seed, then, when anything is drawn, the weights
    checked by _weights and _draw. The weights are not read when shots
    is 0.
    """
    seed = _seed(seed, shots)
    if not shots:
        return np.zeros(0, dtype=int)
    return _draw(*_weights(probs), shots, seed)


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
