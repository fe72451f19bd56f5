"""Dense coding where the payload is a unitary, not a bit pair.

Alice applies u to her half of a shared maximally entangled pair and
sends that half on. Bob measures both systems in the entangled basis
built from an orthogonal unitary family and reads outcome a with
probability |C_a|^2, the expansion weight of u. When u is itself a basis
element the outcome is deterministic and the scheme reduces to the
classical protocol: log2(d^2) symbols per transmitted qudit, one shared
pair consumed. Anyone holding only the transmitted half sees the
maximally mixed state whatever u was.
"""
from __future__ import annotations


import numpy as np

from .basis import OperatorBasis, UnitaryOperator, expand
from .linalg import (
    _check,
    _isometry_deviation,
    _record,
    _records,
    _sample,
    as_matrix,
)

BELL_ATOL = 1e-10


@_record
class BellBasis:
    """The d^2 orthonormal entangled vectors (B_a (x) 1)|phi+>."""

    dim: int
    vectors: np.ndarray
    labels: tuple

    def __post_init__(self):
        d = self.dim
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] != d * d:
            raise ValueError(
                f"expected vectors on C^{d} (x) C^{d}, got shape {v.shape}"
            )
        _check(_isometry_deviation(v.T), BELL_ATOL,
               "encoded vectors are not orthonormal")
        # the vector (B (x) 1)|phi+> reshaped to d x d is B / sqrt(d), and
        # its marginal on the first factor is B B^dag / d
        m = v.reshape(-1, d, d)
        rho = m @ m.conj().swapaxes(1, 2)
        _check(np.abs(rho - np.eye(d) / d).max(), BELL_ATOL,
               "an encoded vector is not maximally entangled; "
               "the basis must consist of unitaries")
        object.__setattr__(self, "vectors", v)


@_record
class ChannelTranscript:
    """What each party holds after one dense-coding round."""

    labels: tuple
    coefficients: np.ndarray
    probabilities: np.ndarray
    eavesdropper_marginal: np.ndarray
    counts: np.ndarray | None = None
    seed: int | None = None

    @property
    def shots(self) -> int:
        return 0 if self.counts is None else int(self.counts.sum())


def bell_basis(basis: OperatorBasis) -> BellBasis:
    """Lift an orthogonal unitary family to an entangled vector basis.

    (B_a (x) 1)|phi+> is B_a flattened row-major over sqrt(d), so the
    family is the records of the stacked elements.
    """
    return BellBasis(basis.dim, _records(basis.elements), basis.labels)


def eavesdropper_marginal(u) -> np.ndarray:
    """Density matrix of the transmitted half alone: always 1/d, whatever
    the unitary u was."""
    return _marginal(UnitaryOperator(as_matrix(u)).matrix)


def _marginal(um: np.ndarray) -> np.ndarray:
    """eavesdropper_marginal of an already-validated unitary matrix.

    The sent record reshaped to d x d is m = u / sqrt(d), and tracing
    the half that was never sent out of |sent><sent| leaves m m^dag."""
    d = um.shape[0]
    m = _records(um[None])[0].reshape(d, d)
    return m @ m.conj().T


def superdense_send(u, basis: OperatorBasis, shots: int = 0,
                    seed: int | None = None) -> ChannelTranscript:
    """One round: encode u on the shared pair, decode in the Bell family.

    Bob's amplitude on Bell vector a is tr(B_a^dag u)/d, the expansion
    coefficient C_a of the unitary, so the exact outcome probabilities
    are |C_a|^2 and a basis element encodes its own index with
    certainty; the amplitudes are computed by expand. The family is
    orthonormal because the basis is trace orthogonal, and maximally
    entangled because its elements are unitary, which OperatorBasis
    checks whenever is_unitary is set.
    """
    um = UnitaryOperator(as_matrix(u)).matrix
    if um.shape[0] != basis.dim:
        raise ValueError("unitary dimension does not match basis")
    if not basis.is_unitary:
        raise ValueError("the basis must consist of unitaries")
    coeffs = expand(um, basis)
    probs = coeffs.probabilities()
    counts = None
    if shots:
        counts = np.bincount(_sample(probs, shots, seed), minlength=probs.size)
    return ChannelTranscript(
        labels=basis.labels,
        coefficients=coeffs.coeffs,
        probabilities=probs,
        eavesdropper_marginal=_marginal(um),
        counts=counts,
        seed=seed,
    )
