"""The import graph: the package loads its modules on first use, and each
subcommand loads only the modules it runs.

Each check runs in a fresh interpreter with PYTHONPATH=src, so nothing
this test session imported can hide a load.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_exports import PUBLIC

ROOT = Path(__file__).resolve().parent.parent

REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules\n"
    "                        if m.startswith('evometry.'))))\n"
)


def _start(code: str, pythonpath: str = "src"):
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _result(proc):
    """The last stdout line of a finished interpreter, as JSON."""
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def _run(code: str, pythonpath: str = "src"):
    return _result(_start(code, pythonpath))


CORE = {"cli", "formats", "gates", "linalg"}
RUNS = {
    ("basis", "--dim", "2"): {"basis"},
    ("measure", "--unitary", "H", "--shots", "10", "--seed", "1"):
        {"basis", "measure"},
    ("channel", "--map", "dephasing:0.5"): {"channels"},
    ("compress", "--map", "dephasing:0.5", "--n", "8"):
        {"channels", "storage"},
    ("retrieve", "--map", "dephasing:0.5", "--trials", "10", "--seed", "1"):
        {"channels", "storage"},
    ("schmidt", "--unitary", "CNOT"): {"interaction", "basis"},
    ("concentrate", "--n", "3", "--alpha", "0.6"): {"interaction"},
    ("superdense", "--unitary", "H"): {"superdense", "basis"},
    ("verify", "--map", "dephasing:0.5", "--seed", "1"):
        {"channels", "storage"},
}


@pytest.fixture(scope="module")
def loaded():
    """argv -> the evometry modules python -m evometry <argv> --json
    loads; the interpreters run side by side."""
    procs = {argv: _start(
        "import runpy, sys\n"
        f"sys.argv = ['evometry', *{list(argv)!r}, '--json']\n"
        "try:\n"
        "    runpy.run_module('evometry', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n" + REPORT
    ) for argv in RUNS}
    return {argv: set(_result(proc)) for argv, proc in procs.items()}


@pytest.mark.parametrize("argv", RUNS)
def test_each_subcommand_loads_only_what_it_runs(loaded, argv):
    assert loaded[argv] == CORE | RUNS[argv]


def test_importing_the_package_loads_no_module_and_lists_every_name():
    loaded, listed, sub, star = _run(
        "import json, sys, evometry\n"
        "loaded = [m for m in sys.modules if m.startswith('evometry.')]\n"
        "listed = dir(evometry)\n"
        "sub = evometry.linalg.__name__\n"
        "ns = {}\n"
        "exec('from evometry import *', ns)\n"
        "print(json.dumps([loaded, listed, sub,\n"
        "                  sorted(k for k in ns if k != '__builtins__')]))\n"
    )
    assert loaded == []
    assert sub == "evometry.linalg"  # a submodule resolves on use
    assert len(PUBLIC) == 62
    assert set(PUBLIC) <= set(listed)
    assert star == sorted(PUBLIC)


def test_a_name_is_its_module_binding():
    import evometry
    import evometry.basis
    import evometry.channels

    assert evometry.pauli_basis is evometry.basis.pauli_basis
    assert evometry.KrausMap is evometry.channels.KrausMap
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        evometry.nothing


def test_a_name_first_resolved_under_the_tracer_is_restored():
    """The benchmark's tracer wraps module bindings and restores them; the
    package holds no binding of its own that could keep a wrapper."""
    out = _run(
        "import json, evometry\n"
        "from evobench.tracer import Tracer\n"
        "t = Tracer()\n"
        "t.install(evometry)\n"
        "wrapped = hasattr(evometry.pauli_basis, '__wrapped__')\n"
        "t.job = 0\n"
        "evometry.pauli_basis(dim=2)\n"
        "t.uninstall()\n"
        "print(json.dumps([wrapped, t.spans[0].name,\n"
        "                  hasattr(evometry.pauli_basis, '__wrapped__')]))\n",
        pythonpath=os.pathsep.join(["src", "bench"]),
    )
    assert out == [True, "basis.pauli_basis", False]
