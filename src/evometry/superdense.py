"""Dense coding where the payload is a unitary, not a bit pair.

Alice applies u to her half of a shared maximally entangled pair and
sends that half on. Bob measures both systems in the entangled family
(B_a (x) 1)|phi+> of an orthogonal unitary basis, the records
linalg._records(basis.elements), and reads outcome a with probability
|C_a|^2, the expansion weight of u. When u is itself a basis element
the outcome is deterministic and the scheme reduces to the classical
protocol: log2(d^2) symbols per transmitted qudit, one shared
pair consumed. Anyone holding only the transmitted half sees the
maximally mixed state whatever u was.

A round checks its unitary, its basis and its seed once, the unitary
in place (linalg._checked_unitary), since the round keeps no part of
it, and reads the coefficients as an array (basis._coefficients, the
body of expand) without an ExpansionCoefficients record. The law of a
checked unitary is finite and non-negative and sums to 1 within
rounding, so the round counts its draws from it without a check of its
own, by their tally (linalg._tally: the seed's keys sorted once and each
label's CDF entry searched among them, the bincount of linalg._draw's
draws bit for bit), and fills its ChannelTranscript from the fresh
arrays, sealed in place (linalg._filled). A transcript built directly
holds sealed copies of its arrays.
"""
from __future__ import annotations

import math

import numpy as np

from .basis import OperatorBasis, _coefficients
from .linalg import _checked_unitary, _count, _filled, _record, _seed, _tally


@_record
class ChannelTranscript:
    """What each party holds after one dense-coding round, its arrays
    sealed copies of the inputs (see linalg._record)."""

    labels: tuple
    coefficients: np.ndarray
    probabilities: np.ndarray
    eavesdropper_marginal: np.ndarray
    counts: np.ndarray | None = None
    seed: int | None = None


def eavesdropper_marginal(u) -> np.ndarray:
    """Density matrix of the transmitted half alone: always 1/d, whatever
    the unitary u was."""
    return _marginal(_checked_unitary(u, what="unitary"))


def _marginal(um: np.ndarray) -> np.ndarray:
    """eavesdropper_marginal of an already-validated unitary matrix.

    The sent record reshaped to d x d is m = u / sqrt(d), and tracing
    the half that was never sent out of |sent><sent| leaves m m^dag."""
    m = um / math.sqrt(um.shape[0])
    return m @ m.conj().T


def superdense_send(u, basis: OperatorBasis, shots: int = 0,
                    seed: int | None = None) -> ChannelTranscript:
    """One round: encode u on the shared pair, decode in the Bell family.

    Bob's amplitude on Bell vector a is tr(B_a^dag u)/d, the expansion
    coefficient C_a of the unitary, so the exact outcome probabilities
    are |C_a|^2 and a basis element encodes its own index with
    certainty; the amplitudes are computed as expand computes them. The
    family is orthonormal because the basis is trace orthogonal, and
    maximally entangled because its elements are unitary, which
    OperatorBasis records in is_unitary. shots goes through
    linalg._count and the seed through linalg._seed, checked even when
    shots is 0.
    """
    shots = _count(shots, "shots")
    um = _checked_unitary(u, basis.dim, "unitary")
    if not basis.is_unitary:
        raise ValueError("the basis must consist of unitaries")
    checked = _seed(seed, shots)
    coeffs = _coefficients(um, basis)
    probs = np.abs(coeffs) ** 2
    counts = None
    if shots:
        # the law of a checked unitary: finite, non-negative, sum 1
        counts = _tally(probs, probs.sum(), shots, checked)
    return _filled(ChannelTranscript, labels=basis.labels,
                   coefficients=coeffs, probabilities=probs,
                   eavesdropper_marginal=_marginal(um), counts=counts,
                   seed=seed)
