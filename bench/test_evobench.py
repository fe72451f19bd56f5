"""Tests of the benchmark harness itself.

Run from the root of a checkout: PYTHONPATH=src python -m pytest bench
"""
import contextlib
import dataclasses
import io
import json
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import evometry
import evometry.cli
from evobench import reference as ref
from evobench import tracer as tr
from evobench.cli_oneshot import CliOneshot
from evobench.common import (Checker, CheckFailed, at_reference_speed,
                             interleave, percentile, smoothed_percentile)
from evobench.echo_circuit import EchoCircuit
from evobench.main import END_TO_END, WORKLOADS, _checked, per_layer_names

ROOT = Path(__file__).resolve().parent.parent


# -- a corrupted result counts as failed ------------------------------------

def _echo_job(mode):
    wl = EchoCircuit(evometry, ROOT, 1)
    wl.bases = {("pauli", 1, False): evometry.pauli_basis(dim=2)}
    wl.sigmas = {("pauli", 1): ref.pauli_strings(1)}
    wl.u0 = {1: None}
    rng = np.random.default_rng(7)
    job = {"class": "pauli1", "kind": "pauli", "size": 1, "dim": 2,
           "mode": mode, "u0": False, "u": ref.haar_unitary(2, rng),
           "psi": ref.haar_state(4, rng), "bystander": True, "seed": 3}
    return wl, job


@pytest.mark.parametrize("mode", ["exact", "circuit"])
def test_echo_job_passes_its_references(mode):
    wl, job = _echo_job(mode)
    chk = Checker()
    wl.check(job, wl.run(job), chk)
    assert 0.0 <= chk.worst < 1e-12
    assert chk.digits() > 12


def test_wrong_probability_fails_the_job():
    wl, job = _echo_job("circuit")
    dist, results, sent = wl.run(job)
    wrong = dist.probabilities.copy()
    wrong[[0, 1]] = wrong[[1, 0]]
    bad = dataclasses.replace(dist, probabilities=wrong)
    with pytest.raises(CheckFailed, match="Born law"):
        wl.check(job, (bad, results, sent), Checker())
    assert _checked(wl, job, (bad, results, sent), None, Checker())


def test_wrong_collapsed_state_fails_the_job():
    wl, job = _echo_job("circuit")
    dist, results, sent = wl.run(job)
    r = results[0]
    moved = dataclasses.replace(r.collapsed, amplitudes=np.roll(r.collapsed.amplitudes, 1))
    results = [dataclasses.replace(r, collapsed=moved)] + list(results[1:])
    with pytest.raises(CheckFailed):
        wl.check(job, (dist, results, sent), Checker())


def test_raising_job_counts_as_failed():
    wl, job = _echo_job("exact")
    assert "ValueError" in _checked(wl, job, None, ValueError("boom"), Checker())


def _cli_verify_job(flip):
    wl = CliOneshot(None, ROOT, 1)
    rng = np.random.default_rng(5)
    ops = ref.random_kraus(2, 3, rng)
    job = {"cmd": "verify", "k": 3, "ops": ops, "ancilla": "fourier", "flip": flip}
    return wl, job


def _cli_report(tmp_path, job):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"dim": 2, "kraus": [
        {"dim": 2, "re": m.real.tolist(), "im": m.imag.tolist()} for m in job["ops"]]}))
    argv = ["verify", "--map", str(path), "--ancilla-basis", job["ancilla"],
            "--steps", "50", "--seed", "9", "--json"]
    if job["flip"] is not None:
        argv += ["--flip", str(job["flip"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = evometry.cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("flip", [None, 4])
def test_cli_verify_report_passes(tmp_path, flip):
    wl, job = _cli_verify_job(flip)
    code, out = _cli_report(tmp_path, job)
    wl.check(job, (code, out, ""), Checker())


def test_flipped_verdict_fails_the_job(tmp_path):
    wl, job = _cli_verify_job(None)
    code, out = _cli_report(tmp_path, job)
    report = json.loads(out)
    report["exact"]["accepted"] = not report["exact"]["accepted"]
    with pytest.raises(CheckFailed, match="verdict"):
        wl.check(job, (code, json.dumps(report), ""), Checker())


def test_nonzero_exit_fails_the_job(tmp_path):
    wl, job = _cli_verify_job(None)
    _, out = _cli_report(tmp_path, job)
    with pytest.raises(CheckFailed, match="exit code 1"):
        wl.check(job, (1, out, "error"), Checker())


def test_false_report_check_fails_the_job(tmp_path):
    wl, job = _cli_verify_job(None)
    code, out = _cli_report(tmp_path, job)
    report = json.loads(out)
    report["checks"]["verdict_expected"] = False
    with pytest.raises(CheckFailed, match="report checks"):
        wl.check(job, (code, json.dumps(report), ""), Checker())


# -- statistics --------------------------------------------------------------

def test_percentile_interpolates_and_counts():
    values = list(range(10, 0, -1))
    assert percentile(values, 0.5) == (5.5, 10)
    p90, n = percentile(values, 0.9)
    assert n == 10 and p90 == pytest.approx(9.1)
    assert percentile([4.0], 0.9) == (4.0, 1)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_ten_samples_beyond_p90_at_one_hundred():
    values = list(range(100))
    p90, n = percentile(values, 0.9)
    assert n == 100 and sum(v > p90 for v in values) == 10


def test_interleave_keeps_every_prefix_in_proportion():
    mix = {"a": 31, "b": 2, "c": 6, "d": 1}
    order = interleave(mix)
    assert sorted(order) == sorted(c for c, n in mix.items() for _ in range(n))
    total = sum(mix.values())
    for t in range(1, total + 1):
        for c, n in mix.items():
            assert abs(order[:t].count(c) - t * n / total) <= 1


def test_time_metrics_rescale_to_reference_speed():
    measured = {"jobs_per_s": 10.0, "job_p50_ms": 30.0, "job_p90_ms": 300.0,
                "setup_s": 2.0, "peak_rss_mb": 48.0, "success_rate": 1.0,
                "accuracy_digits": 13.5}
    out = at_reference_speed(measured, 1.5, 0.8)
    assert out == {"jobs_per_s": 15.0, "job_p50_ms": 20.0, "job_p90_ms": 200.0,
                   "setup_s": 2.5, "peak_rss_mb": 48.0,
                   "success_rate": 1.0, "accuracy_digits": 13.5}
    assert at_reference_speed(measured, 1.0, 1.0) == measured


def test_smoothed_percentile_averages_the_window():
    values = list(range(1, 102))                 # ranks 0..100
    assert smoothed_percentile(values, 0.5, 0.1) == pytest.approx(51.0)
    assert smoothed_percentile(values, 0.9, 0.05) == pytest.approx(91.0)
    bimodal = [10.0] * 50 + [17.0] * 51          # median sits on the step
    assert 10.0 < smoothed_percentile(bimodal, 0.5, 0.1) < 17.0


def test_accuracy_digits_follow_the_worst_deviation():
    chk = Checker()
    assert chk.digits() == 16.0
    chk.close("x", [1.0, 2.0 + 2e-12], [1.0, 2.0])
    assert chk.digits() == pytest.approx(12.0, abs=1e-3)
    with pytest.raises(CheckFailed):
        chk.close("x", [1.0], [1.1])


# -- spans and self time -----------------------------------------------------

def _span(name, start, end, parent, job=0):
    return tr.Span(name, start, end, parent, job)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("basis.pauli_basis", 1.0, 4.0, 0),
        _span("basis.gram", 2.0, 3.5, 1),
        _span("linalg.dag", 5.0, 9.0, 0),
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])
    layers = tr.layer_self_by_job(spans)[0]
    assert layers == pytest.approx({"cli": 3.0, "basis": 3.0, "linalg": 4.0})
    m = tr.layer_metrics(spans, {0: {"basis.elements": 16}}, jobs=2, job_seconds=10.0)
    assert m["basis.calls"] == (1.0, "count")
    assert m["basis.self_s"][0] == pytest.approx(1.5)
    assert m["basis.self_frac"][0] == pytest.approx(0.3)
    assert m["basis.gram.self_ms"][0] == pytest.approx(1500.0)
    assert m["basis.elements"] == (8.0, "count")
    assert m["measure.measure_which_unitary.self_ms"] == (0.0, "ms")


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .alpha import outer\n")
    (pkg / "alpha.py").write_text(textwrap.dedent("""
        from .beta import inner as renamed
        def outer(x):
            return renamed(x) + _private(x)
        def _private(x):
            return 1
        TABLE = {"go": outer}
    """))
    (pkg / "beta.py").write_text("def inner(x):\n    return 2 * x\n")
    (pkg / "__main__.py").write_text("raise SystemExit('must not be imported')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg
    yield toypkg
    for name in [m for m in sys.modules if m.startswith("toypkg")]:
        del sys.modules[name]


def test_tracer_wraps_every_binding_and_restores(toy_package):
    import toypkg.alpha as alpha
    original = alpha.outer
    t = tr.Tracer()
    assert t.install(toy_package) == 2          # outer and inner; not _private
    t.job = 7
    assert toy_package.outer(3) == 7            # re-exported name
    assert alpha.TABLE["go"](1) == 3            # dict value
    assert [(s.name, s.parent, s.job) for s in t.spans] == [
        ("alpha.outer", -1, 7), ("beta.inner", 0, 7),   # alias call nested
        ("alpha.outer", -1, 7), ("beta.inner", 2, 7),
    ]
    t.uninstall()
    assert alpha.outer is original and alpha.TABLE["go"] is original
    assert toy_package.outer is original


def test_tracer_counts_work_from_results():
    t = tr.Tracer()
    t.install(evometry)
    try:
        t.job = 0
        basis = evometry.pauli_basis(dim=4)
        evometry.operator_schmidt(evometry.gates.CNOT, basis_a=evometry.pauli_basis(dim=2),
                                  basis_b=evometry.pauli_basis(dim=2))
        evometry.measure_which_unitary(evometry.gates.H, evometry.pauli_basis(dim=2),
                                       np.array([1, 0], dtype=complex))
    finally:
        t.uninstall()
    assert t.work[0] == {"basis.elements": 16 + 3 * 4, "measure.outcomes": 4,
                         "interaction.coefficients": 16}
    assert evometry.expand.__module__ == "evometry.basis"
    assert not hasattr(evometry.expand, "__wrapped__")


# -- the contract file -------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert spec["paths"] == ["bench"]
