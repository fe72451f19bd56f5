"""Every public entry that takes a unitary checks it through the one
gate, linalg._unitary: a NaN matrix, a non-unitary matrix and a
non-square array are refused with a ValueError, and so is a matrix of
the wrong size wherever the entry implies one. The records that own a
unitary keep a read-only copy of it."""
import numpy as np
import pytest

from evometry import (
    BipartiteUnitary,
    StinespringDilation,
    TwoTimeObservable,
    UnitaryOperator,
    circuit_end_state,
    eavesdropper_marginal,
    measure_which_unitary,
    measure_which_unitary_qudit,
    named_channel,
    operator_schmidt,
    pauli_basis,
    rotate_basis,
    stinespring,
    superdense_send,
    temporal_eigenvalue,
    weyl_basis,
)
from evometry.gates import CNOT, H
from evometry.linalg import UNITARY_ATOL, _unitary, is_unitary

ZERO = np.array([1.0, 0.0])

# name -> (call with the matrix under test, the size of a good matrix,
# whether the entry implies that size)
ENTRIES = {
    "UnitaryOperator": (UnitaryOperator, 2, False),
    "pauli_basis": (pauli_basis, 2, False),
    "weyl_basis": (lambda m: weyl_basis(3, m), 3, True),
    "rotate_basis": (lambda m: rotate_basis(pauli_basis(dim=2), m), 4, True),
    "measure_which_unitary": (
        lambda m: measure_which_unitary(m, pauli_basis(dim=2), ZERO), 2, True),
    "measure_which_unitary_qudit": (
        lambda m: measure_which_unitary_qudit(m, weyl_basis(2), ZERO),
        2, True),
    "circuit_end_state": (
        lambda m: circuit_end_state(m, weyl_basis(2), ZERO), 2, True),
    "TwoTimeObservable": (lambda m: TwoTimeObservable("z", 2, m), 2, True),
    "temporal_eigenvalue": (
        lambda m: temporal_eigenvalue(TwoTimeObservable("z", 2), m), 2, True),
    "superdense_send": (
        lambda m: superdense_send(m, pauli_basis(dim=2)), 2, True),
    "eavesdropper_marginal": (eavesdropper_marginal, 2, False),
    "BipartiteUnitary": (lambda m: BipartiteUnitary((2, 2), m), 4, True),
    "operator_schmidt": (lambda m: operator_schmidt(m, dims=(2, 2)), 4, True),
    "StinespringDilation": (lambda m: StinespringDilation(m, 2, 2), 4, True),
}


def _bad(kind, n):
    if kind == "nan":
        return np.full((n, n), np.nan)
    if kind == "not unitary":
        return np.diag([1.0] * (n - 1) + [0.5])
    if kind == "not square":
        return np.ones((n, n + 1))
    return np.eye(n + 1)  # wrong size


MESSAGES = {"nan": "is not unitary", "not unitary": "is not unitary",
            "not square": "must be a square matrix", "wrong size": "has dim"}


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, (_, _, sized) in ENTRIES.items()
    for kind in MESSAGES if kind != "wrong size" or sized
])
def test_entry_refuses_a_bad_unitary(name, kind):
    call, n, _ = ENTRIES[name]
    with pytest.raises(ValueError, match=MESSAGES[kind]):
        call(_bad(kind, n))


@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_accepts_a_unitary(name):
    call, n, _ = ENTRIES[name]
    call(np.eye(n))


def test_gate_returns_a_read_only_copy():
    m = H.copy()
    out = _unitary(m)
    assert np.array_equal(out, H) and out.dtype == complex
    assert not out.flags.writeable and not np.shares_memory(out, m)
    assert np.array_equal(_unitary(UnitaryOperator(H)), H)  # reads .matrix
    with pytest.raises(ValueError, match="u0 has dim 2, expected 3"):
        _unitary(H, 3, "u0")


def test_is_unitary_shares_the_gate_tolerance():
    near = np.diag([1.0, 1.0 + UNITARY_ATOL / 4])
    far = np.diag([1.0, 1.0 + 4 * UNITARY_ATOL])
    assert is_unitary(near) and not is_unitary(far)
    _unitary(near)
    with pytest.raises(ValueError, match="is not unitary"):
        _unitary(far)
    assert not is_unitary(np.full((2, 2), np.nan))


def test_dilation_and_interaction_matrices_are_read_only():
    for matrix in (stinespring(named_channel("dephasing:0.5")).matrix,
                   BipartiteUnitary((2, 2), np.eye(4)).matrix):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0


def test_records_own_a_copy_of_the_caller_matrix():
    m = CNOT.astype(complex)
    bu = BipartiteUnitary((2, 2), m)
    dil = StinespringDilation(m, 2, 2)
    m[0, 0] = 0.5
    assert bu.matrix[0, 0] == 1.0 and dil.matrix[0, 0] == 1.0
