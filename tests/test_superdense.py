import numpy as np
import pytest

from evometry import (
    BellBasis,
    bell_basis,
    eavesdropper_marginal,
    expand,
    pauli_basis,
    rotate_basis,
    superdense_send,
    weyl_basis,
)
from evometry.gates import PAULIS, X
from evometry.linalg import max_entangled, random_unitary


def test_bell_family_is_orthonormal():
    bell = bell_basis(pauli_basis(dim=2))
    g = bell.vectors.conj() @ bell.vectors.T
    assert np.abs(g - np.eye(4)).max() < 1e-10


def test_bell_vector_zero_is_the_shared_pair():
    bell = bell_basis(pauli_basis(dim=2))
    assert np.abs(bell.vectors[0] - max_entangled(2)).max() < 1e-12


def test_classical_messages_decode_deterministically():
    """Each of the four basis unitaries lands on its own outcome: 2 bits."""
    b = pauli_basis(dim=2)
    for a, sigma in enumerate(PAULIS):
        t = superdense_send(sigma, b)
        expect = np.zeros(4)
        expect[a] = 1.0
        assert np.abs(t.probabilities - expect).max() < 1e-12


def test_sampled_classical_round_is_exact():
    t = superdense_send(X, pauli_basis(dim=2), shots=200, seed=3)
    assert t.counts is not None
    assert t.counts[1] == 200 and t.counts.sum() == 200


def test_superposed_message_splits_by_expansion():
    rng = np.random.default_rng(51)
    b = pauli_basis(dim=2)
    for _ in range(10):
        u = random_unitary(2, rng)
        t = superdense_send(u, b)
        expect = np.abs(expand(u, b).coeffs) ** 2
        assert np.abs(t.probabilities - expect).max() < 1e-10
        assert abs(t.probabilities.sum() - 1.0) < 1e-12


def test_eavesdropper_learns_nothing():
    rng = np.random.default_rng(52)
    for _ in range(10):
        u = random_unitary(2, rng)
        marg = eavesdropper_marginal(u)
        assert np.abs(marg - np.eye(2) / 2).max() < 1e-12


def test_eavesdropper_marginal_on_transcript():
    t = superdense_send(X, pauli_basis(dim=2))
    assert np.abs(t.eavesdropper_marginal - np.eye(2) / 2).max() < 1e-12


def test_qudit_dense_coding():
    d = 3
    b = weyl_basis(d)
    for a in (0, 4, 8):
        t = superdense_send(b.elements[a], b)
        expect = np.zeros(d * d)
        expect[a] = 1.0
        assert np.abs(t.probabilities - expect).max() < 1e-12
        assert np.abs(t.eavesdropper_marginal - np.eye(d) / d).max() < 1e-12


def test_send_requires_matching_dimension():
    with pytest.raises(ValueError):
        superdense_send(np.eye(3), pauli_basis(dim=2))


def test_shots_require_seed():
    with pytest.raises(ValueError):
        superdense_send(X, pauli_basis(dim=2), shots=5)


def test_nan_vector_is_rejected():
    bell = bell_basis(pauli_basis(dim=2))
    vectors = bell.vectors.copy()
    vectors[1, 0] = np.nan
    with pytest.raises(ValueError):
        BellBasis(2, vectors, bell.labels)


def test_non_unitary_family_is_not_maximally_entangled():
    # orthonormal vectors whose operators are not unitary: |00>, |01>, ...
    with pytest.raises(ValueError, match="maximally entangled"):
        BellBasis(2, np.eye(4, dtype=complex), ("a", "b", "c", "d"))


def test_bell_vectors_must_live_on_the_doubled_space():
    with pytest.raises(ValueError, match="shape"):
        BellBasis(2, np.eye(3, dtype=complex), ("a", "b", "c"))


def test_send_refuses_a_non_unitary_basis():
    rb = rotate_basis(pauli_basis(dim=2), random_unitary(4, 19))
    with pytest.raises(ValueError, match="must consist of unitaries"):
        superdense_send(X, rb)
