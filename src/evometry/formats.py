"""File formats and JSON plumbing shared by the command line tools.

Matrices and states travel as {"dim": d, "re": ..., "im": ...} with
nested lists for matrices and flat lists for states; channels as
{"dim": d, "kraus": [matrix, ...]}. Text arguments may also name a gate
(I, X, Y, Z, H, CNOT, SWAP), a channel tag (dephasing:p, depolarizing:p,
unitary:<gate>), or a seeded random state ("random:SEED").
"""
from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

import numpy as np

from .gates import GATES
from .linalg import _count, random_state

if TYPE_CHECKING:  # annotations; the two channel readers import channels
    from .channels import KrausMap


def matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _dim(value, kind: str) -> int:
    """The dim field of an object: a JSON integer >= 1, not a bool."""
    try:
        dim = _count(value, "dim")
    except ValueError:
        dim = 0
    if dim < 1:
        raise ValueError(f"{kind} dim must be an integer >= 1, got {value!r}")
    return dim


def _complex_from_json(obj: dict, kind: str):
    """The re + i im array of a matrix or state object, and its dim (see
    _dim); the object must be a JSON object and every entry finite."""
    if not isinstance(obj, dict):
        raise ValueError(f"malformed {kind} object: not a JSON object")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        dim = obj["dim"]
    except KeyError as err:
        raise ValueError(f"malformed {kind} object: missing {err}")
    except (TypeError, ValueError) as err:
        raise ValueError(f"malformed {kind} object: {err}")
    dim = _dim(dim, kind)
    if re.shape != im.shape:
        raise ValueError(
            f"{kind} re/im shapes differ: {re.shape} vs {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"{kind} entries must be finite numbers")
    return re + 1j * im, dim


def matrix_from_json(obj: dict) -> np.ndarray:
    m, dim = _complex_from_json(obj, "matrix")
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not match dim {dim}")
    return m


def state_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex).ravel()
    return {"dim": v.size, "re": v.real.tolist(), "im": v.imag.tolist()}


def state_from_json(obj: dict) -> np.ndarray:
    v, dim = _complex_from_json(obj, "state")
    v = v.ravel()
    if v.size != dim:
        raise ValueError(f"state length {v.size} does not match dim {dim}")
    return v


def kraus_json(kraus: KrausMap) -> dict:
    return {
        "dim": kraus.dim,
        "kraus": [matrix_json(m) for m in kraus.operators],
    }


def kraus_from_json(obj: dict) -> KrausMap:
    """A channel object; its elements must be dim x dim when dim is given."""
    from .channels import KrausMap

    ops = obj.get("kraus") if isinstance(obj, dict) else None
    if not isinstance(ops, list):
        raise ValueError("channel object needs a 'kraus' list")
    ops = [matrix_from_json(m) for m in ops]
    if "dim" in obj:
        dim = _dim(obj["dim"], "channel")
        if any(m.shape[0] != dim for m in ops):
            raise ValueError(f"channel of dim {dim} has an element of "
                             "another shape")
    return KrausMap(ops)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not valid JSON ({err})")


def load_unitary(arg: str) -> np.ndarray:
    """A gate by name, or a matrix from a JSON file."""
    name = arg.strip().upper()
    if name in GATES:
        return GATES[name].copy()
    if os.path.exists(arg):
        return matrix_from_json(_read_json(arg))
    raise ValueError(f"unknown gate or missing file: {arg!r}")


def load_state(arg: str, dim: int) -> np.ndarray:
    """A state from "random:SEED", a JSON file, or "zero"."""
    text = arg.strip()
    if text.lower() == "zero":
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    if text.lower().startswith("random:"):
        try:
            seed = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"random state needs an integer seed: {arg!r}")
        return random_state(dim, seed)
    if os.path.exists(text):
        v = state_from_json(_read_json(text))
        if v.size != dim:
            raise ValueError(
                f"state from {text} has dim {v.size}, expected {dim}"
            )
        return v
    raise ValueError(f"unknown state tag or missing file: {arg!r}")


def load_map(arg: str) -> KrausMap:
    """A channel tag, or a {"dim", "kraus"} JSON file."""
    from .channels import named_channel

    text = arg.strip()
    if os.path.exists(text):
        return kraus_from_json(_read_json(text))
    return named_channel(text)


def json_report(payload: dict) -> str:
    """Canonical serialization: sorted keys, fixed layout, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
