"""== on the records of measure, superdense, storage and interaction that
hold arrays: field by field, entry by entry, returning a bool (the
dataclass-generated == raised on the truth value of an array). A record
hashes only when it defines __hash__, as TwoTimeObservable does. Copies
and pickles of every array record are built again through its checks,
and every array of every record is sealed, read-only for good."""
import ast
import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evometry
from evometry import (
    BipartiteUnitary,
    EvolutionSequence,
    ExpansionCoefficients,
    KrausMap,
    OperatorBasis,
    OutcomeDistribution,
    PureState,
    StinespringDilation,
    TwoTimeObservable,
    UnitaryOperator,
    VerificationRecord,
    canonical_kraus,
    choi,
    concentrate,
    expand,
    kraus_from_ancilla_basis,
    measure_choi_side,
    measure_which_unitary,
    named_channel,
    operator_schmidt,
    pauli_basis,
    probabilistic_retrieve,
    stinespring,
    store,
    superdense_send,
    verify_sequence,
    weyl_basis,
    which_unitary_distribution,
)
from evometry.gates import CNOT
from evometry.measure import CircuitBranches
from evometry.linalg import (_arrays_equal, _draw, _rebuild, _sample,
                             random_state, random_unitary)


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


def test_circuit_records_hold_only_their_settable_fields():
    """dim, is_unitary, counts and shots are read from these fields, not
    stored beside them, so no copy can fall out of line with them."""
    fields = {cls: tuple(f.name for f in dataclasses.fields(cls))
              for cls in (OperatorBasis, ExpansionCoefficients,
                          OutcomeDistribution)}
    assert fields == {
        OperatorBasis: ("elements", "labels"),
        ExpansionCoefficients: ("coeffs",),
        OutcomeDistribution: ("labels", "probabilities", "shot_outcomes",
                              "seed"),
    }
    b = pauli_basis(dim=4)
    assert (b.dim, b.is_unitary) == (4, True)
    assert ExpansionCoefficients(np.eye(4)).dim == 4
    dist = _measured(5)[0]
    assert dist.shots == 64 and dist.counts.sum() == 64


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
    assert len(array_records) == 18 and array_records == set(RECORDS)
    for name in array_records:
        assert records[name].__eq__ is _arrays_equal, name
        assert records[name].__reduce__ is _rebuild, name
    for name in PLAIN_RECORDS:
        assert records[name].__dataclass_params__.eq, name
    hashable = {name for name, cls in records.items()
                if cls.__hash__ is not None}
    assert hashable == HASHABLE_RECORDS
    # lazy fields and copies go through linalg._record alone
    package = Path(evometry.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = {n.name for n in node.body
                         if isinstance(n, ast.FunctionDef)}
                assert not names & {"__getattr__", "__reduce__"}, (
                    path.name, node.name)


def _records():
    """One of each array record, built as the tests above build them."""
    m = named_channel("dephasing:0.5")
    dil = stinespring(m)
    claim = EvolutionSequence(kraus_from_ancilla_basis(dil), (0, 1, 1, 0))
    psi = PureState(random_state(2, 8))
    dist, branches = _measured(5)
    u = random_unitary(4, 7)
    return (
        m, canonical_kraus(m), choi(m), dil, psi, branches[0], dist,
        UnitaryOperator(u), pauli_basis(dim=4), expand(u, pauli_basis(dim=4)),
        TwoTimeObservable("z", 2, random_unitary(2, 2)),
        superdense_send(u, pauli_basis(dim=4), shots=32, seed=1),
        store(m, (0, 1, 1)),
        probabilistic_retrieve(0, named_channel("unitary:H"), psi, 5),
        verify_sequence(dil, None, claim, 9),
        concentrate(3, 0.6, shots=8, seed=1),
        BipartiteUnitary((2, 2), CNOT), operator_schmidt(CNOT),
    )


RECORDS = {type(r).__name__: r for r in _records()}


def _arrays(value, path="record"):
    """(path, array) for every array a value holds, in nested records and
    tuples too."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_are_rebuilt_through_the_constructor(name):
    """A copy, a deepcopy and a pickle round trip have the record's type,
    compare equal and hold the same arrays; a copied map starts without
    its canonical form and refuses writes."""
    record = RECORDS[name]
    if isinstance(record, KrausMap):
        canonical_kraus(record)
    fresh = dict(_arrays(record))
    for c in (copy.copy(record), copy.deepcopy(record),
              pickle.loads(pickle.dumps(record))):
        assert type(c) is type(record) and c == record
        assert dict(_arrays(c)).keys() == fresh.keys()
        if isinstance(c, KrausMap):
            assert "_canonical" not in vars(c)
            with pytest.raises(ValueError):
                c.operators[0, 0, 0] = 5


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from([("pauli", 1), ("pauli", 2), ("pauli", 3),
                               ("weyl", 3), ("weyl", 5)]),
       with_u0=st.booleans(), bystander=st.booleans(),
       shots=st.sampled_from([0, 1, 512]), seed=st.integers(0, 2 ** 32 - 1))
def test_filled_records_equal_their_constructed_rebuilds(
        family, with_u0, bystander, shots, seed):
    """The records that the which-unitary and dense-coding calls fill
    without their validators are the records their constructors build
    from the same fields, and survive a pickle; the draws are
    Generator.choice's and _sample's, bit for bit."""
    rng = np.random.default_rng(seed)
    kind, size = family
    d = 2 ** size if kind == "pauli" else size
    u0 = random_unitary(d, rng) if with_u0 else None
    basis = pauli_basis(u0, dim=d) if kind == "pauli" else weyl_basis(d, u0)
    u = random_unitary(d, rng)
    psi = random_state(2 * d if bystander else d, rng)
    draw = int(rng.integers(2 ** 31))
    dist, branches = measure_which_unitary(u, basis, psi, shots=shots,
                                           seed=draw)
    sent = superdense_send(u, basis, shots=shots, seed=draw + 1)
    records = [dist, branches, sent, which_unitary_distribution(u, basis),
               expand(u, basis)]
    for branch in branches:
        records += [branch, branch.collapsed]
    for r in records:
        rebuilt = type(r)(*(getattr(r, f.name)
                            for f in dataclasses.fields(r)))
        assert rebuilt == r and pickle.loads(pickle.dumps(r)) == r
    for p, got, s in ((dist.probabilities, dist.shot_outcomes, draw),
                      (sent.probabilities, sent.counts, draw + 1)):
        if not shots:
            assert got is None
            continue
        want = np.random.default_rng(s).choice(p.size, size=shots,
                                               p=p / p.sum())
        assert np.array_equal(want, _sample(p, shots, s))
        if got is sent.counts:
            want = np.bincount(want, minlength=p.size)
        assert np.array_equal(got, want) and got.dtype == want.dtype


def _filled_distribution(source, shots, seed):
    """The OutcomeDistribution a measurement fills: the echo circuit over
    a Pauli or a Weyl basis, or the channel-state picture."""
    d = 3 if source == "circuit-weyl" else 4
    basis = weyl_basis(d) if source == "circuit-weyl" else pauli_basis(dim=d)
    u = random_unitary(d, 21)
    if source == "choi-side":
        return measure_choi_side(u, basis, shots=shots, seed=seed)[0]
    return measure_which_unitary(u, basis, random_state(2 * d, 22),
                                 shots=shots, seed=seed)[0]


SOURCES = ("circuit-pauli", "circuit-weyl", "choi-side")


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("read_first", [False, True],
                         ids=["counts-first", "shots-first"])
def test_filled_distributions_draw_their_shots_when_read(source, read_first):
    """A measurement holds its tally, not its 512 per-shot outcomes:
    counts and shots read the tally, and shot_outcomes is drawn on its
    first read, _draw's indices of the law and the seed bit for bit,
    read-only and kept. Whichever is read first, ==, copies, pickles and
    repr match the record the constructor builds from the same draws."""
    shots, seed = 512, 31

    def filled():
        dist = _filled_distribution(source, shots, seed)
        if read_first:
            dist.shot_outcomes
        return dist

    dist = filled()
    p = dist.probabilities
    want = _draw(p, p.sum(), shots, seed)
    assert dist.shots == shots
    assert np.array_equal(dist.counts, np.bincount(want, minlength=p.size))
    held = [k for k, v in vars(dist).items() if np.shape(v) == (shots,)]
    assert held == (["shot_outcomes"] if read_first else [])
    got = dist.shot_outcomes
    assert got is dist.shot_outcomes
    assert np.array_equal(got, want) and got.dtype == want.dtype
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got.setflags(write=True)
    assert np.array_equal(dist.counts, np.bincount(got, minlength=p.size))
    rebuilt = OutcomeDistribution(dist.labels, p, want, seed)
    assert filled() == rebuilt and rebuilt == filled()
    for copied in (copy.copy, copy.deepcopy,
                   lambda r: pickle.loads(pickle.dumps(r))):
        assert copied(filled()) == rebuilt
    assert repr(filled()) == repr(rebuilt)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seed", [None, 7])
def test_filled_distributions_without_shots_hold_none(source, seed):
    dist = _filled_distribution(source, 0, seed)
    assert dist.shot_outcomes is None and dist.counts is None
    assert dist.shots == 0 and dist.seed == seed
    assert dist == OutcomeDistribution(dist.labels, dist.probabilities,
                                       None, seed)


def test_constructors_freeze_copies_not_their_inputs():
    """A record built directly holds read-only copies: the caller's arrays
    stay writable."""
    p, c = np.array([0.25, 0.75]), np.array([0.5, 0.5, 0.5, 0.5j])
    dist = OutcomeDistribution(("a", "b"), p, np.array([1, 0]))
    coeffs = ExpansionCoefficients(c)
    sent = superdense_send(random_unitary(2, 9), pauli_basis(dim=2), 4, 1)
    fields = [getattr(sent, f.name) for f in dataclasses.fields(sent)]
    inputs = [a.copy() if isinstance(a, np.ndarray) else a for a in fields]
    again = type(sent)(*inputs)
    assert again == sent
    for a in (p, c, *inputs):
        assert not isinstance(a, np.ndarray) or a.flags.writeable
    for a in (dist.probabilities, dist.shot_outcomes, coeffs.coeffs,
              again.coefficients, again.probabilities,
              again.eavesdropper_marginal, again.counts):
        assert not a.flags.writeable


def _held_arrays(value, path="record"):
    """(path, array) for every array a value holds: in its fields, built
    on first read when lazy, and in its private state (a tally, an
    isometry, a memo, a builder's source), in nested records and tuples
    too."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _held_arrays(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            getattr(value, f.name)
        for name, item in vars(value).items():
            yield from _held_arrays(item, f"{path}.{name}")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_array_of_every_record_is_sealed(name):
    """However a record was made (its constructor, _filled, a builder's
    _filled with its source, a built field) and in its copy, deepcopy,
    pickle and dataclasses.replace, every array it holds is read-only
    and refuses setflags(write=True)."""
    record = RECORDS[name]
    if isinstance(record, KrausMap):
        canonical_kraus(record)
    for made in (record, copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record)),
                 dataclasses.replace(record)):
        arrays = dict(_held_arrays(made))
        assert arrays.keys() >= dict(_arrays(made)).keys()
        for path, a in arrays.items():
            assert not a.flags.writeable, path
            with pytest.raises(ValueError, match="WRITEABLE"):
                a.setflags(write=True)


def test_a_channel_state_cannot_be_written():
    m = choi(named_channel("dephasing:0.5")).matrix
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 5


def test_constructed_arrays_cannot_be_reopened():
    """A constructor's read-only array is a view of its frozen copy, so
    setflags(write=True) raises: a map's stack cannot be re-opened behind
    its memoised canonical form, nor a state's amplitudes."""
    m = named_channel("dephasing:0.5")
    canonical_kraus(m)
    state = PureState(np.array([0.6, 0.8j]))
    for a in (m.operators, state.amplitudes):
        with pytest.raises(ValueError, match="WRITEABLE"):
            a.setflags(write=True)


def test_constructors_copy_a_view_of_a_read_only_array():
    """A record built directly keeps no input array, not even a view of
    a read-only one: its caller may open the owner again and write to
    it, and the record does not change."""
    o = np.array([0.25, 0.75])
    o.setflags(write=False)
    r = VerificationRecord(True, (0,), (0,), o.view())
    o.setflags(write=True)
    o[0] = 9
    assert r.step_weights.tolist() == [0.25, 0.75]
    oc, s = np.array([1]), np.array([[1.0, 0.0]], dtype=complex)
    for a in (oc, s):
        a.setflags(write=False)
    branches = CircuitBranches(oc.view(), s.view(), [0.5])
    for a in (oc, s):
        a.setflags(write=True)
    oc[0], s[0, 0] = 0, 0.0
    assert branches.outcomes.tolist() == [1]
    assert branches.states.tolist() == [[1.0, 0.0]]


def test_dilations_from_stinespring_compare_their_maps_unbuilt():
    """Two dilations from stinespring compare their source maps, so at
    (d, k) = (16, 16) neither (d k)^2 matrix is built; against a dilation
    built directly, == reads matrix."""
    iso = random_unitary(256, 16)[:, :16]
    a = stinespring(KrausMap(iso.reshape(16, 16, 16)))
    b = stinespring(KrausMap(iso.reshape(16, 16, 16).copy()))
    other = stinespring(KrausMap(iso[::-1].reshape(16, 16, 16)))
    assert a == b and not a != b and a != other
    assert not {"matrix"} & (vars(a).keys() | vars(b).keys()
                             | vars(other).keys())
    assert a == StinespringDilation(b.matrix, 16, 16)
