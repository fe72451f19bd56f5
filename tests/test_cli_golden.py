"""Every subcommand's --json report on named inputs, pinned.

The recorded reports are in cli_golden.json, keyed by the command line.
Each run must give the recorded exit code, the same keys at every level,
every non-float value (counts, verdicts, labels, sampled outcomes) exactly
and every float within 1e-14 absolute, so a rewrite may move a figure in
its last bits but not a verdict, a count or a draw. A command that is a
usage error records exit code 2 and no report.

After a deliberate change of a report, rewrite the file with
    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import pathlib

import pytest

from evometry.cli import _COMMANDS, main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
FLOAT_ATOL = 1e-14

MAPS = ("dephasing:0.5", "depolarizing:0.3", "depolarizing:1",
        "unitary:H", "unitary:CNOT", "unitary:SWAP")


def _invocations():
    for m in MAPS:
        yield ("channel", "--map", m)
        yield ("compress", "--map", m, "--n", "16", "--delta", "0.1")
        yield ("retrieve", "--map", m, "--trials", "50", "--seed", "3")
        for basis in ("computational", "fourier"):
            for flip in ((), ("--flip", "4")):
                yield ("verify", "--map", m, "--ancilla-basis", basis,
                       "--steps", "25", "--seed", "13", *flip)
    yield ("basis", "--kind", "pauli", "--dim", "2")
    yield ("basis", "--kind", "pauli", "--dim", "4")
    yield ("basis", "--kind", "weyl", "--dim", "3")
    yield ("basis", "--kind", "weyl", "--dim", "5")
    yield ("measure", "--unitary", "H", "--shots", "1000", "--seed", "11")
    yield ("measure", "--unitary", "H", "--u0", "H")
    yield ("measure", "--unitary", "H", "--basis", "weyl", "--shots", "200",
           "--seed", "5")
    yield ("measure", "--unitary", "CNOT", "--shots", "500", "--seed", "7")
    yield ("schmidt", "--unitary", "SWAP")
    yield ("schmidt", "--unitary", "CNOT")
    yield ("schmidt", "--unitary", "H")
    yield ("concentrate", "--n", "4", "--alpha", "0.8660254037844386",
           "--mode", "exact-matrix")
    yield ("concentrate", "--n", "3", "--alpha", "0.6",
           "--mode", "exact-matrix", "--shots", "100", "--seed", "2")
    yield ("concentrate", "--n", "12", "--alpha", "0.6", "--shots", "300",
           "--seed", "17")
    yield ("superdense", "--unitary", "H")
    yield ("superdense", "--unitary", "X", "--shots", "64", "--seed", "9")
    yield ("superdense", "--unitary", "CNOT", "--shots", "100", "--seed", "4")
    yield ("superdense", "--unitary", "SWAP")


INVOCATIONS = [" ".join(argv) for argv in _invocations()]


def _run(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*line.split(), "--json"])
    out = out.getvalue()
    return {"exit": code, "report": json.loads(out) if out else None}


def _assert_matches(got, want, where):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= FLOAT_ATOL, (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_subcommand_and_invocation(golden):
    assert list(golden) == INVOCATIONS
    assert {line.split()[0] for line in golden} == set(_COMMANDS)


@pytest.mark.parametrize("line", INVOCATIONS)
def test_cli_report_matches_golden(line, golden):
    _assert_matches(_run(line), golden[line], line)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {line: _run(line) for line in INVOCATIONS}, indent=1) + "\n")
