"""Seeded draws pinned to their recorded values.

The outcome records below were produced by the loop-based circuit
engine; any rewrite of the engine or of the dense-coding decoder must
reproduce them draw for draw.
"""
import numpy as np

from evometry import (
    measure_which_unitary,
    measure_which_unitary_qudit,
    pauli_basis,
    superdense_send,
    weyl_basis,
)
from evometry.linalg import random_state, random_unitary


def _assert_record(dist, outcomes):
    assert dist.shot_outcomes.tolist() == outcomes
    assert np.array_equal(
        dist.counts, np.bincount(outcomes, minlength=dist.probabilities.size)
    )


def test_pauli_circuit_with_reference_and_bystander():
    rng = np.random.default_rng(2003)
    u0 = random_unitary(8, rng)
    u = random_unitary(8, rng)
    psi = random_state(16, rng)
    dist, _ = measure_which_unitary(u, pauli_basis(u0), psi, shots=24,
                                    seed=11)
    _assert_record(dist, [7, 31, 36, 3, 8, 57, 5, 7, 59, 38, 20, 31, 42, 14,
                          8, 48, 42, 31, 49, 33, 62, 11, 34, 27])


def test_weyl_circuit_d5():
    rng = np.random.default_rng(5)
    u = random_unitary(5, rng)
    psi = random_state(5, rng)
    dist, _ = measure_which_unitary_qudit(u, weyl_basis(5), psi, shots=24,
                                          seed=12)
    _assert_record(dist, [4, 24, 2, 2, 7, 3, 16, 1, 23, 23, 0, 13, 1, 4, 9,
                          9, 9, 24, 4, 2, 16, 24, 24, 23])


def test_superdense_three_qubits():
    rng = np.random.default_rng(8)
    u = random_unitary(8, rng)
    t = superdense_send(u, pauli_basis(dim=8), shots=24, seed=13)
    want = {0: 1, 6: 2, 9: 1, 22: 3, 33: 1, 35: 1, 37: 1, 39: 2, 42: 1,
            51: 4, 52: 1, 55: 2, 59: 1, 61: 1, 63: 2}
    assert {int(i): int(t.counts[i]) for i in np.flatnonzero(t.counts)} == want
