"""== on the records of measure, superdense, storage and interaction that
hold arrays: field by field, entry by entry, returning a bool (the
dataclass-generated == raised on the truth value of an array). Records
with writable arrays are unhashable; TwoTimeObservable, whose u0 is a
read-only copy, hashes."""
import dataclasses

import numpy as np
import pytest

import evometry
from evometry import (
    EvolutionSequence,
    OutcomeDistribution,
    PureState,
    TwoTimeObservable,
    choi,
    concentrate,
    kraus_from_ancilla_basis,
    measure_which_unitary,
    named_channel,
    pauli_basis,
    probabilistic_retrieve,
    stinespring,
    store,
    superdense_send,
    verify_sequence,
)
from evometry.linalg import _arrays_equal, random_state, random_unitary


def assert_compares(a, b, other, hashable=False):
    """a and b are distinct equal records, other differs from both."""
    assert a is not b and (a == b) is True and (a != b) is False
    assert (a == other) is False and (a != other) is True
    assert a != "not a record"
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_pure_state():
    v = random_state(4, 1)
    assert_compares(PureState(v), PureState(v.copy()), PureState(v[::-1]))


def test_two_time_observable():
    u0 = random_unitary(2, 2)
    assert_compares(TwoTimeObservable("z", 2, u0),
                    TwoTimeObservable("z", 2, u0.copy()),
                    TwoTimeObservable("z", 2), hashable=True)
    assert_compares(TwoTimeObservable("x", 3), TwoTimeObservable("x", 3),
                    TwoTimeObservable("z", 3), hashable=True)


def _measured(seed):
    u, psi = random_unitary(4, 3), random_state(4, 4)
    return measure_which_unitary(u, pauli_basis(dim=4), psi, shots=64,
                                 seed=seed)


def test_which_unitary_result():
    (_, a), (_, b) = _measured(5), _measured(5)
    assert a == b
    assert_compares(a[0], b[0], dataclasses.replace(a[0], exact_prob=0.5))
    assert a[0] != a[1]


def test_outcome_distribution():
    assert_compares(_measured(5)[0], _measured(5)[0], _measured(6)[0])
    p = np.array([0.5, 0.5])
    assert_compares(OutcomeDistribution(("a", "b"), p),
                    OutcomeDistribution(("a", "b"), p.copy()),
                    OutcomeDistribution(("a", "c"), p))


def test_channel_transcript():
    u, b = random_unitary(4, 7), pauli_basis(dim=4)
    assert_compares(superdense_send(u, b, shots=32, seed=1),
                    superdense_send(u.copy(), b, shots=32, seed=1),
                    superdense_send(u, b, shots=32, seed=2))


def test_stored_evolution():
    m = named_channel("dephasing:0.5")
    assert_compares(store(m, (0, 1, 1)), store(m, (0, 1, 1)),
                    store(m, (0, 1, 0)))


def test_retrieval_outcome():
    m = named_channel("unitary:H")
    psi = PureState(random_state(2, 8))
    other = PureState(np.array([1, 0], dtype=complex))
    assert_compares(probabilistic_retrieve(0, m, psi, 5),
                    probabilistic_retrieve(0, m, psi, 5),
                    probabilistic_retrieve(0, m, other, 5))


def test_verification_record():
    dil = stinespring(named_channel("dephasing:0.5"))
    rep = kraus_from_ancilla_basis(dil)
    claim = EvolutionSequence(rep, (0, 1, 1, 0))
    assert_compares(verify_sequence(dil, None, claim, 9),
                    verify_sequence(dil, None, claim, 9),
                    verify_sequence(dil, None,
                                    EvolutionSequence(rep, (0, 1, 1, 1)), 9))


def test_concentration_distribution():
    assert_compares(concentrate(3, 0.6, shots=8, seed=1),
                    concentrate(3, 0.6, shots=8, seed=1),
                    concentrate(3, 0.6, shots=8, seed=2))
    assert_compares(concentrate(2, 0.8, mode="exact-matrix"),
                    concentrate(2, 0.8, mode="exact-matrix"),
                    concentrate(2, 0.8))


def test_choi_state():
    assert_compares(choi(named_channel("dephasing:0.5")),
                    choi(named_channel("dephasing:0.5")),
                    choi(named_channel("dephasing:0.2")))


def test_stinespring_dilation():
    assert_compares(stinespring(named_channel("dephasing:0.5")),
                    stinespring(named_channel("dephasing:0.5")),
                    stinespring(named_channel("dephasing:0.2")))


# the records that hold no array keep the dataclass == and hash
PLAIN_RECORDS = {"EvolutionSequence", "TypicalCompression",
                 "ConcentrationRecord"}
HASHABLE_RECORDS = PLAIN_RECORDS | {"UnitaryOperator", "OperatorBasis",
                                    "KrausMap", "TwoTimeObservable"}


def test_every_public_record_follows_the_record_convention():
    records = {}
    for name in evometry.__all__:
        obj = getattr(evometry, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            records[name] = obj
    for name, cls in records.items():
        assert cls.__dataclass_params__.frozen, name
    array_records = set(records) - PLAIN_RECORDS
    assert len(array_records) == 18
    for name in array_records:
        assert records[name].__eq__ is _arrays_equal, name
    for name in PLAIN_RECORDS:
        assert records[name].__dataclass_params__.eq, name
    hashable = {name for name, cls in records.items()
                if cls.__hash__ is not None}
    assert hashable == HASHABLE_RECORDS
