import json

import numpy as np
import pytest

from evometry import named_channel
from evometry.formats import (
    json_report,
    kraus_from_json,
    kraus_json,
    load_map,
    load_state,
    load_unitary,
    matrix_from_json,
    matrix_json,
    state_from_json,
    state_json,
)
from evometry.gates import H
from evometry.linalg import random_unitary


def test_matrix_round_trip():
    rng = np.random.default_rng(71)
    m = random_unitary(3, rng)
    back = matrix_from_json(matrix_json(m))
    assert np.abs(back - m).max() == 0.0


def test_matrix_from_json_checks_shape():
    obj = matrix_json(np.eye(2, dtype=complex))
    obj["re"] = [[1.0, 0.0]]
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_state_round_trip():
    v = np.array([0.6, 0.8j], dtype=complex)
    back = state_from_json(state_json(v))
    assert np.abs(back - v).max() == 0.0


def test_kraus_round_trip():
    m = named_channel("depolarizing:0.3")
    back = kraus_from_json(kraus_json(m))
    assert len(back) == len(m)
    for a, b in zip(back.operators, m.operators):
        assert np.abs(a - b).max() == 0.0


def test_load_unitary_by_name():
    assert np.abs(load_unitary("H") - H).max() == 0.0


def test_load_unitary_from_file(tmp_path):
    rng = np.random.default_rng(72)
    u = random_unitary(2, rng)
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_json(u)))
    assert np.abs(load_unitary(str(path)) - u).max() == 0.0


def test_load_state_zero_and_random():
    z = load_state("zero", 3)
    assert np.abs(z - np.array([1.0, 0.0, 0.0])).max() == 0.0
    a = load_state("random:7", 4)
    b = load_state("random:7", 4)
    assert np.abs(a - b).max() == 0.0
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_load_state_checks_dimension(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(state_json(np.array([1.0, 0.0]))))
    with pytest.raises(ValueError):
        load_state(str(path), 3)


def test_load_map_named_and_file(tmp_path):
    m = load_map("dephasing:0.5")
    assert len(m) == 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps(kraus_json(m)))
    back = load_map(str(path))
    for a, b in zip(back.operators, m.operators):
        assert np.abs(a - b).max() == 0.0


@pytest.mark.parametrize("obj, message", [
    ({"dim": 2, "kraus": 5}, "'kraus' list"),
    ({"dim": 2, "kraus": [matrix_json(np.eye(3))]}, "dim 2"),
])
def test_kraus_from_json_rejects_malformed_channels(obj, message):
    with pytest.raises(ValueError, match=message):
        kraus_from_json(obj)


def test_bad_json_raises_value_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_unitary(str(path))


def test_json_report_is_stable():
    payload = {"b": 1, "a": [1.5, 2.5], "nested": {"y": 2, "x": 1}}
    r1 = json_report(payload)
    r2 = json_report(dict(reversed(list(payload.items()))))
    assert r1 == r2
    assert r1.endswith("\n")
    assert json.loads(r1)["a"] == [1.5, 2.5]
