"""Completely positive trace-preserving maps and their canonical forms.

A channel rho -> sum_i M_i rho M_i^dag generalizes the single-unitary
story: each operator element can be expanded in a unitary basis, and the
which-element measurement assigns branch M_i the weight tr(M_i^dag M_i)/d
on a maximally mixed input. The canonical form diagonalizes the channel
state (the map applied to half of a maximally entangled pair), yielding
operator elements that are mutually trace orthogonal; the entropy of its
weight spectrum measures how many bits the channel costs to record.
The state has rank at most k for k elements, so the canonical form is
computed from one SVD of the stacked elements, with the same weights
and gauge as diagonalising the channel state.
"""
from __future__ import annotations

import functools

import numpy as np

from .gates import GATES, PAULIS
from .linalg import (
    DEGENERACY_TOL,
    TRIM,
    UNITARY_ATOL,
    _array_hash,
    _check,
    _fix_gauge,
    _frozen,
    _isometry_deviation,
    _record,
    _records,
    _unitary,
    as_matrix,
    dag,
    partial_trace,
    shannon_entropy,
)

TP_ATOL = 1e-9
CHOI_ATOL = 1e-9


@_record
class KrausMap:
    """Operator elements of a trace-preserving CP map.

    The completeness sum sum_i M_i^dag M_i must equal the identity
    within 1e-9 elementwise. The elements are stored as one read-only
    (k, d, d) array, copied from the input, so a map never changes after
    it is built; its canonical form is computed once and memoised (see
    canonical_kraus). Maps with equal elements are equal and hash alike.
    """

    operators: np.ndarray

    def __post_init__(self):
        ops = [as_matrix(m) for m in self.operators]
        if not ops:
            raise ValueError("a map needs at least one operator element")
        d = ops[0].shape[0]
        if any(m.shape != (d, d) for m in ops):
            raise ValueError("operator elements must share one square shape")
        ops = _frozen(ops)
        # sum_i M_i^dag M_i is one product of the (k d) x d reshape
        _check(_isometry_deviation(ops.reshape(-1, d)), TP_ATOL,
               "completeness sum is not the identity")
        object.__setattr__(self, "operators", ops)

    def __hash__(self) -> int:
        return _array_hash(self.operators)

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return len(self.operators)

    @functools.cached_property
    def _canonical(self) -> CanonicalKraus:
        # the columns (M_i (x) 1)|phi+> of the channel state A A^dag
        d, k = self.dim, len(self)
        a = _records(self.operators).T
        if k < d * d:
            u, s, _ = np.linalg.svd(a, full_matrices=False)
            w = s * s
        else:
            # A is not thin: the eigh of A A^dag is cheaper than its SVD
            w, u = np.linalg.eigh(_channel_state(self))
            w, u = w[::-1], u[:, ::-1]
        rows = self.operators.reshape(k * d, d)
        _check_normalised(w.sum(), rows.T @ rows.conj() / d, d)
        n = int(np.count_nonzero(w > TRIM))
        if k < d * d and w[n - 1] <= DEGENERACY_TOL:
            # the last kept weight may share a degenerate group with the
            # null block, which is gauged whole: take all of it
            u, s, _ = np.linalg.svd(a, full_matrices=True)
            w = np.zeros(d * d)
            w[:s.size] = s * s
        w, v = _fix_gauge(w, u, floor=TRIM)
        ops = (v * np.sqrt(d * w)).T.reshape(w.size, d, d)
        w.setflags(write=False)
        return CanonicalKraus(w, ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError("density matrix dimension does not match map")
        return (self.operators @ rho @ self.operators.conj().swapaxes(1, 2)).sum(0)


@_record
class ChoiState:
    """The map applied to the first half of |phi+><phi+|.

    Hermitian, positive, unit trace, and maximally mixed on the acted
    side; violating any of these within tolerance is rejected.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.dim
        if m.shape != (d * d, d * d):
            raise ValueError("channel state must be d^2 x d^2")
        _check(np.abs(m - dag(m)).max(), UNITARY_ATOL,
               "channel state is not Hermitian")
        _check(-np.linalg.eigvalsh(m).min(), CHOI_ATOL,
               "channel state has a negative eigenvalue")
        _check_normalised(np.trace(m), partial_trace(m, (d, d), keep=1), d)
        object.__setattr__(self, "matrix", m)


def _check_normalised(trace, acted: np.ndarray, d: int) -> None:
    """The channel state has unit trace and is maximally mixed on the
    acted side (its marginal there is the identity over d)."""
    _check(abs(trace - 1.0), CHOI_ATOL, "channel state trace is not 1")
    _check(np.abs(acted - np.eye(d) / d).max(), CHOI_ATOL,
           "map is not trace preserving (acted-side marginal)")


@_record
class CanonicalKraus:
    """Trace-orthogonal operator elements with their weights.

    K_m = sqrt(d p_m) W_m where the W_m are the unit-normalized
    eigenvectors of the channel state, so tr(K_m^dag K_n) = d p_m
    delta_mn and the probabilities p_m sum to 1 (descending). They are
    computed from the SVD of the stacked elements, with the same weights
    and gauge as diagonalising the channel state. The operators are one
    read-only (D, d, d) array, copied from the input.
    """

    probabilities: np.ndarray
    operators: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operators", _frozen(self.operators))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return len(self.operators)

    def as_map(self) -> KrausMap:
        return KrausMap(self.operators)


@_record
class StinespringDilation:
    """A unitary one-system picture of a channel.

    matrix is a read-only (d*a, d*a) unitary on system (x) ancilla, the
    ancilla starting in its first basis state; reading the ancilla in a
    basis afterwards selects one operator element per outcome.
    """

    matrix: np.ndarray
    system_dim: int
    ancilla_dim: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _unitary(
            self.matrix, self.system_dim * self.ancilla_dim,
            "dilation matrix"))


def _channel_state(kraus: KrausMap) -> np.ndarray:
    """The state sum_i v_i v_i^dag over the records v_i = (M_i (x) 1)|phi+>,
    as one product."""
    v = _records(kraus.operators)
    return v.T @ v.conj()


def _born_weights(kraus: KrausMap) -> np.ndarray:
    """tr(M_i^dag M_i)/d per element: the weight of outcome i when the
    element is read out on a maximally entangled (or mixed) input."""
    return np.sum(np.abs(kraus.operators) ** 2, axis=(1, 2)) / kraus.dim


def choi(kraus: KrausMap) -> ChoiState:
    """Channel state of the map, acting on the first tensor factor."""
    return ChoiState(kraus.dim, _channel_state(kraus))


def canonical_kraus(kraus: KrausMap) -> CanonicalKraus:
    """Diagonalize the channel state into trace-orthogonal elements.

    Computed from the SVD of the stacked elements, the d^2 x k matrix A
    with the channel state A A^dag; same weights and gauge as
    diagonalising the channel state: the weights are the squared
    singular values, the eigenvectors the left singular vectors. When
    k >= d^2, A is not thin and the eigh of A A^dag is cheaper. Weights
    below 1e-12 are trimmed. Degenerate eigenspaces are resolved by the
    deterministic convention in deterministic_eigh, so equal maps produce
    identical canonical forms; only the kept vectors are gauge-fixed,
    and when the last kept weight lies within the 1e-10 degeneracy
    tolerance of the null block (k < d^2), the full left factor is taken
    so that the group is gauged whole. The state's unit trace and
    acted-side marginal are checked as ChoiState does, from the weights
    and the elements; it is Hermitian and positive by construction. The
    result is memoised on the map (whose elements are read-only), so
    repeat calls return the same CanonicalKraus, whose arrays are
    read-only.
    """
    return kraus._canonical


def entropy(kraus: KrausMap) -> float:
    """Entropy in bits of the canonical weight spectrum.

    0 for a unitary, up to 2 log2 d for the fully depolarizing map.
    """
    return shannon_entropy(canonical_kraus(kraus).probabilities)


def kraus_rotation(kraus: KrausMap, u: np.ndarray) -> KrausMap:
    """Mix operator elements by an isometry: N_j = sum_i M_i U_ij.

    U must have orthonormal rows (U U^dag = 1_k), so the target may
    have k' >= k elements. The result presents the same channel.
    """
    u = np.asarray(u, dtype=complex)
    k = len(kraus)
    if u.ndim != 2 or u.shape[0] != k:
        raise ValueError("row count must match number of operator elements")
    _check(_isometry_deviation(dag(u)), TP_ATOL, "rows are not orthonormal")
    return KrausMap(np.tensordot(u.T, kraus.operators, axes=1))


def equivalent(a: KrausMap, b: KrausMap) -> bool:
    """Whether two operator-element sets present the same channel: their
    channel states differ by at most 1e-9 in Frobenius norm."""
    if a.dim != b.dim:
        return False
    return bool(np.linalg.norm(choi(a).matrix - choi(b).matrix) <= TP_ATOL)


def stinespring(kraus: KrausMap) -> StinespringDilation:
    """Dilate to a unitary on system (x) ancilla, ancilla dim = len(kraus).

    The isometry columns (ancilla fixed to |0>) stack the operator
    elements; remaining columns come from an orthonormal completion, so
    the dilation is exactly unitary whatever the channel.
    """
    d = kraus.dim
    a = len(kraus)
    # row r * a + i of the isometry is row r of M_i
    iso = kraus.operators.transpose(1, 0, 2).reshape(d * a, d)
    full = np.zeros((d * a, d * a), dtype=complex)
    full[:, [j * a for j in range(d)]] = iso
    # complete the remaining columns from the orthogonal complement
    _, _, vh = np.linalg.svd(iso.conj().T, full_matrices=True)
    complement = vh[d:].conj().T
    rest = [j * a + i for j in range(d) for i in range(1, a)]
    full[:, rest] = complement
    return StinespringDilation(full, d, a)


def kraus_from_ancilla_basis(dil: StinespringDilation,
                             ancilla_basis=None) -> KrausMap:
    """Read operator elements out of a dilation: M_i = <b_i| U |0>.

    ancilla_basis rows b_i default to the computational basis; any
    orthonormal basis gives an equivalent presentation of the channel,
    related to the native one by kraus_rotation.
    """
    d, a = dil.system_dim, dil.ancilla_dim
    if ancilla_basis is None:
        ancilla_basis = np.eye(a, dtype=complex)
    else:
        ancilla_basis = np.asarray(ancilla_basis, dtype=complex)
        if ancilla_basis.shape != (a, a):
            raise ValueError("ancilla basis must have a rows of dimension a")
        _check(_isometry_deviation(dag(ancilla_basis)), TP_ATOL,
               "ancilla basis not orthonormal")
    v0 = dil.matrix[:, ::a].reshape(d, a, d)
    ops = np.einsum("ic,rcj->irj", ancilla_basis.conj(), v0)
    return KrausMap(ops)


def _parse_prob(text: str, name: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise ValueError(f"{name} needs a numeric parameter, got {text!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} parameter must lie in [0, 1], got {p}")
    return p


def named_channel(tag: str) -> KrausMap:
    """Build a channel from a text tag.

    Recognized forms: "dephasing:p", "depolarizing:p", and
    "unitary:<gate>" where <gate> is one of the named gates (I, X, Y,
    Z, H, CNOT, SWAP).
    """
    kind, _, arg = tag.partition(":")
    kind = kind.strip().lower()
    if kind == "dephasing":
        p = _parse_prob(arg, "dephasing")
        i2, _, _, z = PAULIS
        return KrausMap((np.sqrt(1 - p) * i2, np.sqrt(p) * z))
    if kind == "depolarizing":
        p = _parse_prob(arg, "depolarizing")
        i2, x, y, z = PAULIS
        return KrausMap((
            np.sqrt(1 - 3 * p / 4) * i2,
            np.sqrt(p / 4) * x,
            np.sqrt(p / 4) * y,
            np.sqrt(p / 4) * z,
        ))
    if kind == "unitary":
        name = arg.strip().upper()
        if name not in GATES:
            raise ValueError(f"unknown gate {arg!r}")
        return KrausMap((GATES[name],))
    raise ValueError(f"unknown channel tag {tag!r}")
