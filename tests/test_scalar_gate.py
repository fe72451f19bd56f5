"""Every public entry that takes a count, a seed, an n or a basis
dimension checks it through the one gate, linalg._count: a bool, a float
(NaN included) and a negative are refused with a ValueError that names
the argument, before numpy or math sees them. An index into a map's
elements goes through linalg._index, built on it, which also refuses
the count and above. A numpy integer is accepted."""
import numpy as np
import pytest

from evometry import (
    EvolutionSequence,
    concentrate,
    concentration_sectors,
    kraus_from_ancilla_basis,
    measure_choi_side,
    measure_which_unitary,
    measure_which_unitary_qudit,
    named_channel,
    pauli_basis,
    pauli_strings,
    probabilistic_retrieve,
    retrieval_statistics,
    stinespring,
    superdense_send,
    typical_compress,
    verify_sequence,
    weyl_basis,
)
from evometry.gates import H
from evometry.linalg import _count, _index

ZERO = np.array([1.0, 0.0])
DEPHASING = named_channel("dephasing:0.5")
DILATION = stinespring(DEPHASING)
CLAIM = EvolutionSequence(kraus_from_ancilla_basis(DILATION), (0, 1))

# name -> call with keyword arguments; each call samples, so a seed is read
ENTRIES = {
    "measure_which_unitary": lambda shots=4, seed=1: measure_which_unitary(
        H, pauli_basis(dim=2), ZERO, shots=shots, seed=seed),
    "measure_which_unitary_qudit":
        lambda shots=4, seed=1: measure_which_unitary_qudit(
            H, weyl_basis(2), ZERO, shots=shots, seed=seed),
    "measure_choi_side": lambda shots=4, seed=1: measure_choi_side(
        H, pauli_basis(dim=2), shots=shots, seed=seed),
    "superdense_send": lambda shots=4, seed=1: superdense_send(
        H, pauli_basis(dim=2), shots=shots, seed=seed),
    "concentrate": lambda n=3, shots=4, seed=1: concentrate(
        n, 0.6, shots=shots, seed=seed),
    "concentration_sectors": lambda n=2: concentration_sectors(n, 0.6),
    "typical_compress": lambda n=4: typical_compress(DEPHASING, n, 0.1),
    "pauli_strings": lambda n=2: pauli_strings(n),
    "pauli_basis": lambda dim=2: pauli_basis(dim=dim),
    "weyl_basis": lambda dim=3: weyl_basis(dim),
    "verify_sequence": lambda seed=1: verify_sequence(DILATION, None, CLAIM,
                                                      seed),
    "probabilistic_retrieve": lambda index=0, seed=1: probabilistic_retrieve(
        index, DEPHASING, ZERO, seed),
    "retrieval_statistics":
        lambda index=0, trials=4, seed=1: retrieval_statistics(
            index, DEPHASING, ZERO, trials, seed),
}

PARAMETERS = {
    "measure_which_unitary": ("shots", "seed"),
    "measure_which_unitary_qudit": ("shots", "seed"),
    "measure_choi_side": ("shots", "seed"),
    "superdense_send": ("shots", "seed"),
    "concentrate": ("n", "shots", "seed"),
    "concentration_sectors": ("n",),
    "typical_compress": ("n",),
    "pauli_strings": ("n",),
    "pauli_basis": ("dim",),
    "weyl_basis": ("dim",),
    "verify_sequence": ("seed",),
    "probabilistic_retrieve": ("seed",),
    "retrieval_statistics": ("trials", "seed"),
}

BAD = {"bool": True, "fraction": 2.5, "nan": float("nan"), "negative": -1}


@pytest.mark.parametrize("name, param, kind", [
    (name, param, kind) for name, params in PARAMETERS.items()
    for param in params for kind in BAD
])
def test_entry_refuses_a_bad_scalar(name, param, kind):
    with pytest.raises(ValueError,
                       match=f"^{param} must be a non-negative integer"):
        ENTRIES[name](**{param: BAD[kind]})


# the entries whose shots may be 0, so that nothing is drawn
DRAWING = [name for name, params in PARAMETERS.items() if "shots" in params]


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in DRAWING for kind in BAD
])
def test_seed_is_checked_when_nothing_is_drawn(name, kind):
    with pytest.raises(ValueError,
                       match="^seed must be a non-negative integer"):
        ENTRIES[name](shots=0, seed=BAD[kind])


@pytest.mark.parametrize("seed", [None, 3])
def test_nothing_drawn_records_no_shots(seed):
    """With shots=0 the records hold None where the draws would be, and
    the seed as it was given."""
    for name in DRAWING:
        out = ENTRIES[name](shots=0, seed=seed)
        if name == "concentrate":
            assert out.samples is None
        elif name == "superdense_send":
            assert out.counts is None and out.seed == seed
        else:
            dist, _ = out
            assert dist.shot_outcomes is None and dist.counts is None
            assert dist.shots == 0 and dist.seed == seed


@pytest.mark.parametrize("name, param", [
    (name, param) for name, params in PARAMETERS.items() for param in params
])
def test_entry_accepts_a_numpy_integer(name, param):
    ENTRIES[name]()
    ENTRIES[name](**{param: np.int64(2)})


def test_gate_returns_a_python_int():
    assert _count(np.uint8(7), "shots") == 7
    assert type(_count(np.int64(7), "shots")) is int
    for bad in (np.True_, 3.0, "3", None):
        with pytest.raises(ValueError, match="shots must be"):
            _count(bad, "shots")


# the entries that take an index into the map's two elements
INDEXED = ("probabilistic_retrieve", "retrieval_statistics")


@pytest.mark.parametrize("name, index", [
    (name, index) for name in INDEXED
    for index in (True, 2.5, float("nan"), -1, len(DEPHASING))
])
def test_entry_refuses_a_bad_index(name, index):
    with pytest.raises(ValueError,
                       match="^index .* outside the map's 2 elements"):
        ENTRIES[name](index=index)


@pytest.mark.parametrize("name", INDEXED)
def test_entry_accepts_a_numpy_integer_index(name):
    ENTRIES[name](index=np.int64(1))


def test_index_gate_returns_a_python_int():
    assert type(_index(np.uint8(1), 2, "index")) is int
    for bad in (np.True_, 1.0, "1", None, 2):
        with pytest.raises(ValueError, match="index .* outside"):
            _index(bad, 2, "index")
