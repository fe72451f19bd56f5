from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import (
    eavesdropper_marginal,
    expand,
    pauli_basis,
    rotate_basis,
    superdense_send,
    weyl_basis,
)
from evometry.gates import PAULIS, X
from evometry.linalg import (
    UNITARY_ATOL,
    _records,
    max_entangled,
    partial_trace,
    random_unitary,
)
from evometry import superdense


def test_bell_family_is_orthonormal():
    bell = _records(pauli_basis(dim=2).elements)
    g = bell.conj() @ bell.T
    assert np.abs(g - np.eye(4)).max() < 1e-10


def test_bell_vector_zero_is_the_shared_pair():
    bell = _records(pauli_basis(dim=2).elements)
    assert np.abs(bell[0] - max_entangled(2)).max() < 1e-12


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


def test_send_refuses_a_non_unitary_basis():
    rb = rotate_basis(pauli_basis(dim=2), random_unitary(4, 19))
    with pytest.raises(ValueError, match="must consist of unitaries"):
        superdense_send(X, rb)


def test_send_checks_its_unitary_once():
    basis, rng = pauli_basis(dim=4), np.random.default_rng(40)
    us = [random_unitary(4, rng) for _ in range(3)]
    with mock.patch.object(superdense, "_checked_unitary",
                           side_effect=superdense._checked_unitary) as post:
        for u in us:
            superdense_send(u, basis, shots=8, seed=1)
    assert post.call_count == len(us)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_transcript_marginal_is_the_partial_trace(d, seed):
    """m m^dag, with m the sent record as a d x d matrix, is the partial
    trace of |sent><sent| over the half that was never sent."""
    u = random_unitary(d, seed)
    sent = np.kron(u, np.eye(d)) @ max_entangled(d)
    want = partial_trace(np.outer(sent, sent.conj()), (d, d), keep=0)
    got = superdense_send(u, weyl_basis(d)).eavesdropper_marginal
    assert np.abs(got - want).max() <= 1e-15
    assert np.abs(got - np.eye(d) / d).max() <= UNITARY_ATOL
    assert np.array_equal(eavesdropper_marginal(u), got)
