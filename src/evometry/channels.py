"""Completely positive trace-preserving maps and their canonical forms.

A channel rho -> sum_i M_i rho M_i^dag generalizes the single-unitary
story: each operator element can be expanded in a unitary basis, and the
which-element measurement assigns branch M_i the weight tr(M_i^dag M_i)/d
on a maximally mixed input. The canonical form diagonalizes the channel
state (the map applied to half of a maximally entangled pair), yielding
operator elements that are mutually trace orthogonal; the entropy of its
weight spectrum measures how many bits the channel costs to record.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gates import GATES, PAULIS
from .linalg import _fix_gauge, as_matrix, dag, partial_trace, shannon_entropy

TP_ATOL = 1e-9
CHOI_ATOL = 1e-9
UNITARY_ATOL = 1e-10
TRIM = 1e-12


@dataclass(frozen=True)
class KrausMap:
    """Operator elements of a trace-preserving CP map.

    The completeness sum sum_i M_i^dag M_i must equal the identity
    within 1e-9 elementwise. The elements are stored as read-only copies,
    so a map never changes after it is built, and its canonical form is
    computed once and memoised (see canonical_kraus).
    """

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.array(as_matrix(m)) for m in self.operators)
        for m in ops:
            m.setflags(write=False)
        if not ops:
            raise ValueError("a map needs at least one operator element")
        d = ops[0].shape[0]
        for m in ops:
            if m.shape != (d, d):
                raise ValueError("operator elements must share one square shape")
        total = sum(dag(m) @ m for m in ops)
        dev = np.abs(total - np.eye(d)).max()
        if not dev <= TP_ATOL:
            raise ValueError(
                f"completeness sum deviates from identity by {dev:.3e}"
            )
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)

    @functools.cached_property
    def _canonical(self) -> CanonicalKraus:
        d = self.dim
        state = _channel_state(self)
        w, v = _fix_gauge(*_checked_spectrum(state, d, vectors=True),
                          floor=TRIM)
        ops = (v * np.sqrt(d * w)).T.reshape(w.size, d, d)
        w.setflags(write=False)
        ops.setflags(write=False)
        return CanonicalKraus(w, tuple(ops))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError("density matrix dimension does not match map")
        return sum(m @ rho @ dag(m) for m in self.operators)


@dataclass(frozen=True)
class ChoiState:
    """The map applied to the first half of |phi+><phi+|.

    Hermitian, positive, unit trace, and maximally mixed on the acted
    side; violating any of these within tolerance is rejected.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _checked_spectrum(m, self.dim)
        object.__setattr__(self, "matrix", m)


def _checked_spectrum(m: np.ndarray, d: int, vectors: bool = False):
    """Validate a channel state and return its ascending spectrum.

    The state must be d^2 x d^2, Hermitian (checked before any
    eigensolver runs), positive, of unit trace and maximally mixed on
    the acted side. Returns (eigenvalues, eigenvectors) from one eigh
    when vectors is set, else (eigenvalues, None) from eigvalsh.
    """
    if m.shape != (d * d, d * d):
        raise ValueError("channel state must be d^2 x d^2")
    if not np.abs(m - dag(m)).max() <= UNITARY_ATOL:
        raise ValueError("channel state is not Hermitian")
    w, v = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    if not w.min() >= -CHOI_ATOL:
        raise ValueError(f"channel state has negative eigenvalue {w.min():.3e}")
    if not abs(np.trace(m) - 1.0) <= CHOI_ATOL:
        raise ValueError("channel state trace is not 1")
    acted = partial_trace(m, (d, d), keep=1)
    if not np.abs(acted - np.eye(d) / d).max() <= CHOI_ATOL:
        raise ValueError("map is not trace preserving (acted-side marginal)")
    return w, v


@dataclass(frozen=True)
class CanonicalKraus:
    """Trace-orthogonal operator elements with their weights.

    K_m = sqrt(d p_m) W_m where the W_m are the unit-normalized
    eigenvectors of the channel state, so tr(K_m^dag K_n) = d p_m
    delta_mn and the probabilities p_m sum to 1 (descending).
    """

    probabilities: np.ndarray
    operators: tuple

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)

    def as_map(self) -> KrausMap:
        return KrausMap(self.operators)


@dataclass(frozen=True)
class StinespringDilation:
    """A unitary one-system picture of a channel.

    matrix has shape (d*a, d*a) and acts on system (x) ancilla, the
    ancilla starting at index ancilla_start; reading the ancilla in a
    basis afterwards selects one operator element per outcome.
    """

    matrix: np.ndarray
    system_dim: int
    ancilla_dim: int
    ancilla_start: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        da = self.system_dim * self.ancilla_dim
        if m.shape != (da, da):
            raise ValueError("dilation matrix shape must be (d*a, d*a)")
        if not np.abs(m @ dag(m) - np.eye(da)).max() <= UNITARY_ATOL:
            raise ValueError("dilation matrix is not unitary")
        object.__setattr__(self, "matrix", m)


def _channel_state(kraus: KrausMap) -> np.ndarray:
    """(M_i (x) 1)|phi+> is M_i flattened row-major over sqrt(d), so the
    state sum_i v_i v_i^dag is one product of the stacked elements."""
    d = kraus.dim
    v = np.reshape(kraus.operators, (len(kraus), d * d)) / np.sqrt(d)
    return v.T @ v.conj()


def choi(kraus: KrausMap) -> ChoiState:
    """Channel state of the map, acting on the first tensor factor."""
    return ChoiState(kraus.dim, _channel_state(kraus))


def canonical_kraus(kraus: KrausMap) -> CanonicalKraus:
    """Diagonalize the channel state into trace-orthogonal elements.

    Eigenvalues below 1e-12 are trimmed. Degenerate eigenspaces are
    resolved by the deterministic convention in deterministic_eigh, so
    equal maps produce identical canonical forms. The channel state is
    validated as ChoiState does and diagonalised once; only the kept
    eigenvectors are gauge-fixed. The result is memoised on the map
    (whose elements are read-only copies), so repeat calls return the
    same CanonicalKraus, whose arrays are read-only.
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
    dev = np.abs(u @ dag(u) - np.eye(k)).max()
    if not dev <= TP_ATOL:
        raise ValueError(f"rows are not orthonormal (deviation {dev:.3e})")
    return KrausMap(tuple(np.tensordot(u.T, kraus.operators, axes=1)))


def equivalent(a: KrausMap, b: KrausMap, tol: float = TP_ATOL) -> bool:
    """Whether two operator-element sets present the same channel."""
    if a.dim != b.dim:
        return False
    return bool(np.linalg.norm(choi(a).matrix - choi(b).matrix) <= tol)


def stinespring(kraus: KrausMap) -> StinespringDilation:
    """Dilate to a unitary on system (x) ancilla, ancilla dim = len(kraus).

    The isometry columns (ancilla fixed to |0>) stack the operator
    elements; remaining columns come from an orthonormal completion, so
    the dilation is exactly unitary whatever the channel.
    """
    d = kraus.dim
    a = len(kraus)
    iso = np.zeros((d * a, d), dtype=complex)
    for i, m in enumerate(kraus.operators):
        iso[i::a, :] = m
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
        dev = np.abs(ancilla_basis @ dag(ancilla_basis) - np.eye(a)).max()
        if not dev <= TP_ATOL:
            raise ValueError(f"ancilla basis not orthonormal (dev {dev:.3e})")
    v0 = dil.matrix[:, dil.ancilla_start::a].reshape(d, a, d)
    ops = np.einsum("ic,rcj->irj", ancilla_basis.conj(), v0)
    return KrausMap(tuple(ops))


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
