"""Storing realized evolutions as states, compressing, verifying, retrieving.

A sequence of operator elements drawn from a channel can be recorded by
letting each element act on half of a maximally entangled pair. In the
canonical representation the records are mutually orthogonal, so a run
of n draws is a classical string in disguise and compresses at the map
entropy. A stored evolution can later be pushed onto an unknown state: a
controlled application of the canonical elements followed by a Fourier
readout of the storage register heralds, on its uniform-phase outcome,
the exact action of the stored operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .channels import (
    KrausMap,
    StinespringDilation,
    _born_weights,
    canonical_kraus,
    kraus_from_ancilla_basis,
)
from .linalg import (TRIM, _check, _count, _fourier, _frozen, _index,
                     _record, _records, _sample, _seal, _seed, _tally,
                     _weights)

if TYPE_CHECKING:  # annotations; the retrieval functions import it to build
    from .measure import PureState

STORE_ATOL = 1e-10
MATCH_ATOL = 1e-9
MAX_EXACT_N = 20
# largest composition table typical_compress builds, in cells (rows x k)
MAX_TABLE_CELLS = 10_000_000
_FACTORIALS = np.array([math.factorial(i) for i in range(MAX_EXACT_N + 1)],
                       dtype=np.int64)


@dataclass(frozen=True)
class EvolutionSequence:
    """Which operator element acted at each of n steps: integer indices
    (numpy integers included) into the map's elements. Plain ints are
    checked in one pass by their range; anything else index by index."""

    map: KrausMap
    indices: tuple

    def __post_init__(self):
        try:
            indices = tuple(self.indices)
        except TypeError:
            raise ValueError(f"indices must be a sequence of integers, "
                             f"got {self.indices!r}") from None
        k = len(self.map)
        # type(i) is int excludes bools and numpy integers, which _index
        # refuses or converts
        if not (indices and all(type(i) is int for i in indices)
                and min(indices) >= 0 and max(indices) < k):
            indices = tuple(_index(i, k, "index") for i in indices)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.indices)


@_record
class StoredEvolution:
    """Per-step storage states: one read-only (n, d^2) array whose row i
    is the unit record, on the doubled system, of step i's element."""

    sequence: EvolutionSequence
    states: np.ndarray

    def __post_init__(self):
        states = _frozen(self.states)
        shape = (len(self.sequence), self.sequence.map.dim ** 2)
        if states.shape != shape:
            raise ValueError(f"need storage states of shape {shape}, "
                             f"got {states.shape}")
        _check(np.abs(np.linalg.norm(states, axis=1) - 1.0).max(initial=0.0),
               STORE_ATOL, "storage states must be unit vectors")
        object.__setattr__(self, "states", states)


@_record
class RetrievalOutcome:
    """One retrieval attempt: herald flag, post-measurement system state,
    which storage outcome was observed, and the exact herald weight."""

    heralded_success: bool
    output: PureState
    outcome_index: int
    herald_probability: float


@_record
class VerificationRecord:
    """Sampled ancilla record compared against a claimed sequence."""

    accepted: bool
    sampled: tuple
    claimed: tuple
    step_weights: np.ndarray


@dataclass(frozen=True)
class TypicalCompression:
    """Size and fidelity cost of keeping only the typical records."""

    kept_dim: int
    infidelity_bound: float
    rate: float


def _unit_records(stack: np.ndarray) -> np.ndarray:
    """The records of a (k, d, d) stack, each normalized; a record of
    norm TRIM (1e-12) or less, or NaN, is refused."""
    v = _records(stack)
    n = np.linalg.norm(v, axis=1)
    if not (n > TRIM).all():
        raise ValueError("operator annihilates the entangled record state "
                         f"(record norm {n.min():.3e})")
    return v / n[:, None]


def stored_state(op: np.ndarray) -> np.ndarray:
    """Normalized record (M (x) 1)|phi+> of a single operator."""
    return _unit_records(np.asarray(op, dtype=complex)[None])[0]


def storage_overlap(op_a: np.ndarray, op_b: np.ndarray) -> complex:
    """Inner product of two normalized records.

    Equals tr(A^dag B)/d when both operators satisfy tr(M^dag M) = d
    (unitaries in particular); in general the trace inner product is
    divided by the two record norms.
    """
    return complex(np.vdot(stored_state(op_a), stored_state(op_b)))


def store(kraus: KrausMap, indices) -> StoredEvolution:
    """Record a realized sequence of operator elements as states, one
    row each; a sequence drawn from another map is refused."""
    seq = (
        indices
        if isinstance(indices, EvolutionSequence)
        else EvolutionSequence(kraus, tuple(indices))
    )
    if seq.map != kraus:
        raise ValueError("the sequence was drawn from another map than the "
                         "one it is stored with")
    states = _unit_records(kraus.operators[list(seq.indices)])
    return StoredEvolution(seq, states)


def typical_compress(kraus: KrausMap, n: int, delta: float) -> TypicalCompression:
    """Exact typical-set size for n draws from the canonical spectrum.

    Keeps the composition classes whose per-draw surprisal sits within
    delta of the map entropy; kept_dim counts the records kept (an exact
    integer), infidelity_bound is the discarded probability mass, and
    rate is log2(kept_dim)/n. The classes are the rows of an integer
    table of the C(n+k-1, k-1) compositions of n over the k canonical
    weights, with their exact multinomials; the surprisal of every row
    and the typical mask are a few array operations over it. Enumeration
    is exact, hence the n <= 20 cap (20! fits a 64-bit integer), and a
    table of more than MAX_TABLE_CELLS cells is refused before it is
    built: k <= 8 fits at n = 20.
    """
    n = _count(n, "n")
    if n < 1 or n > MAX_EXACT_N:
        raise ValueError(f"n must lie in [1, {MAX_EXACT_N}] for exact enumeration")
    if not delta >= 0:
        raise ValueError(f"delta must be a non-negative number, got {delta}")
    p = canonical_kraus(kraus).probabilities
    if p.size == 1:
        return TypicalCompression(1, 0.0, 0.0)
    counts, sizes = _composition_table(n, p.size)
    surprisal = -np.log2(p)
    ent = float(p @ surprisal)
    # accumulate column by column, the order of summing each composition's
    # terms in turn, so the mask at the delta edge does not move; the
    # powers are scalar pow (numpy's vector pow can differ in the last bit)
    powers = np.array([[x ** c for c in range(n + 1)] for x in p.tolist()])
    total = counts[:, 0] * surprisal[0]
    prob = powers[0, counts[:, 0]]
    for j in range(1, p.size):
        total += counts[:, j] * surprisal[j]
        prob *= powers[j, counts[:, j]]
    keep = np.abs(total / n - ent) <= delta + 1e-12
    kept = sum(sizes[keep].tolist())
    mass = math.fsum((sizes[keep] * prob[keep]).tolist())
    rate = math.log2(kept) / n if kept else 0.0
    return TypicalCompression(kept, max(0.0, 1.0 - mass), rate)


@lru_cache(maxsize=8)
def _composition_table(n: int, k: int):
    """Read-only table of the compositions of n into k parts, in
    lexicographic order, as a uint8 (rows, k) array, with their
    multinomials n!/(c_0! ... c_(k-1)!) as int64 (exact for n <= 20)."""
    rows = math.comb(n + k - 1, k - 1)
    if rows * k > MAX_TABLE_CELLS:
        raise ValueError(
            f"{rows} compositions of n = {n} over {k} weights ({rows * k} "
            f"cells) exceed the table budget of {MAX_TABLE_CELLS} cells"
        )
    # extend every prefix by each part that fits in what it leaves of n
    counts = np.zeros((1, 0), dtype=np.uint8)
    left = np.array([n], dtype=np.uint8)
    for _ in range(k - 1):
        fits = left + 1
        prefix = np.repeat(np.arange(left.size), fits)
        part = np.arange(prefix.size) - np.repeat(np.cumsum(fits) - fits, fits)
        part = part.astype(np.uint8)
        counts = np.column_stack([counts[prefix], part])
        left = left[prefix] - part
    counts = np.column_stack([counts, left])
    sizes = np.full(rows, _FACTORIALS[n])
    for j in range(k):
        sizes //= _FACTORIALS[counts[:, j]]
    return _seal(counts), _seal(sizes)


def verify_sequence(dil: StinespringDilation, ancilla_basis,
                    claimed: EvolutionSequence, seed) -> VerificationRecord:
    """Check a claimed draw record against fresh runs of the dilation.

    The representation selected by the ancilla basis must match the
    claimed map's operator elements within 1e-9; each step then yields
    outcome i with the Born weight tr(M_i^dag M_i)/d on a maximally
    entangled input, and the claim is accepted only if every sampled
    outcome equals the claimed one. A corrupted claim survives exactly
    with the probability of the disagreeing outcomes.
    """
    rep = kraus_from_ancilla_basis(dil, ancilla_basis)
    if len(rep) != len(claimed.map):
        raise ValueError("ancilla basis selects a different element count "
                         "than the claimed map")
    _check(np.abs(rep.operators - claimed.map.operators).max(),
           MATCH_ATOL, "representation selected by the ancilla basis does "
           "not match the claimed map")
    weights = _born_weights(rep)
    sampled = tuple(_sample(weights, len(claimed), seed).tolist())
    return VerificationRecord(
        accepted=sampled == claimed.indices,
        sampled=sampled,
        claimed=claimed.indices,
        step_weights=weights,
    )


def _retrieval_rows(kraus: KrausMap, index: int, psi):
    """Storage-register branches of the controlled-application protocol,
    and psi's amplitudes: a PureState's as they are, a plain vector
    checked once, in place, by the state check (measure._state).

    Row m carries the canonical element m applied to psi, weighted by
    the stored operator's coefficient in the canonical expansion.
    """
    from .measure import _state  # so storage loads without measure

    psi = _state(psi)
    index = _index(index, len(kraus), "index")
    canon = canonical_kraus(kraus)
    d = kraus.dim
    if psi.size != d:
        raise ValueError("state dimension does not match the map")
    m_op = kraus.operators[index]
    flat = canon.operators.reshape(len(canon), -1)
    coeff = flat.conj() @ m_op.ravel() / (d * canon.probabilities)
    resid = m_op.ravel() - coeff @ flat
    scale = max(1.0, np.linalg.norm(m_op))
    _check(np.linalg.norm(resid), MATCH_ATOL * scale,
           "stored operator lies outside the map's support")
    nsq = float(np.sum(np.abs(coeff) ** 2 * canon.probabilities))
    rows = coeff[:, None] * (canon.operators @ psi) / np.sqrt(nsq)
    return rows, psi


def _fourier_branches(rows: np.ndarray):
    """Post-measurement branches of the Fourier readout, with weights."""
    branches = _fourier(rows.shape[0]).conj() @ rows
    weights = np.sum(np.abs(branches) ** 2, axis=1)
    return branches, weights / weights.sum()


def probabilistic_retrieve(index: int, kraus: KrausMap, psi,
                           seed) -> RetrievalOutcome:
    """Push a stored operator element onto an unknown state, heralded.

    The storage register, holding the record of element M_i expanded
    over the D canonical elements, controls which canonical element
    acts on psi; a Fourier-basis readout of the register then heralds
    success on its uniform-phase outcome and leaves the system in
    exactly M_i|psi> normalized. Writing M_i = sum_m c_m K_m over the
    canonical elements K_m, the herald occurs with probability

        ||M_i psi||^2 / (D sum_m |c_m|^2 ||K_m psi||^2).

    When the canonical elements are proportional to unitaries,
    ||K_m psi||^2 = tr(K_m^dag K_m)/d and this reduces to
    d ||M_i psi||^2 / (tr(M_i^dag M_i) D), which is 1/D whenever the
    stored element is unitary up to scale. Other outcomes are returned
    as failures with their post-measurement state. psi is a PureState
    or a unit vector of the map's dimension.
    """
    from .measure import PureState

    rows, _ = _retrieval_rows(kraus, index, psi)
    branches, weights = _fourier_branches(rows)
    k = int(_sample(weights, 1, seed)[0])
    out = branches[k]
    return RetrievalOutcome(
        heralded_success=k == 0,
        output=PureState(out / np.linalg.norm(out)),
        outcome_index=k,
        herald_probability=float(weights[0]),
    )


def retrieval_statistics(index: int, kraus: KrausMap, psi,
                         trials: int, seed) -> dict:
    """Herald rate over many retrieval attempts, sampled in one stream.
    psi is a PureState or a unit vector, as in probabilistic_retrieve."""
    trials = _count(trials, "trials")
    rows, psi = _retrieval_rows(kraus, index, psi)
    branches, weights = _fourier_branches(rows)
    seed = _seed(seed, trials)
    successes = 0
    if trials:
        # the herald's count alone: the tally of the draws, not the draws
        successes = int(_tally(*_weights(weights), trials, seed)[0])
    target = branches[0] / np.linalg.norm(branches[0])
    expected = kraus.operators[index] @ psi
    expected /= np.linalg.norm(expected)
    return {
        "support_dim": int(weights.size),
        "herald_probability": float(weights[0]),
        "trials": trials,
        "successes": successes,
        "empirical_rate": successes / trials if trials else 0.0,
        "success_fidelity": float(abs(np.vdot(expected, target))),
    }
