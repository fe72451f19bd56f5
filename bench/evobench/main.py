"""Run one workload, or all of them, and report the metrics.

Each workload is a closed loop with one client: the next job starts when
the previous one has returned and been checked. Jobs come in rounds whose
size mix is fixed and whose inputs are drawn from (seed, round), so no
input repeats and the same seed gives the same jobs. A run lasts at
least --seconds and, untraced, at least MIN_JOBS jobs, so p90 always has
ten or more samples beyond it; a traced run covers at least one round.

A fixed probe that never calls the program runs between jobs; the time
metrics are reported at the reference speed of that probe (see
common.at_reference_speed), because a shared virtual machine can change
speed by up to ~1.8x from minute to minute (measured on 2 vCPUs).

With --trace 0 the run reports the end-to-end metrics. With --trace 1
every job runs twice, once plain and once with the package's public
functions wrapped in spans (alternating which goes first), and the run
reports per-layer metrics plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from . import tracer as tr
from .channel_records import ChannelRecords
from .cli_oneshot import CliOneshot
from .common import (Checker, at_reference_speed, checkout_root, environment,
                     median, percentile, smoothed_percentile)
from .echo_circuit import EchoCircuit

WORKLOADS = {w.name: w for w in (EchoCircuit, CliOneshot, ChannelRecords)}
SETUP_REPEATS = 3
MIN_JOBS = 100

END_TO_END = (
    ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("success_rate", "ratio"),
    ("accuracy_digits", "digits"),
)


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{layer}.{m}" for layer in tr.LAYERS
             for m in ("calls", "self_s", "self_frac")]
    names += [f"{f}.self_ms" for f in tr.FUNCTIONS]
    names += list(tr.WORK) + ["cli.startup_ms", "cli.import_ms", "trace.overhead"]
    return names


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import evometry
    where = Path(evometry.__file__).resolve()
    if (root / "src").resolve() not in where.parents:
        raise SystemExit(f"error: evometry was imported from {where}, "
                         f"not from this checkout")
    return evometry


def _timed(fn):
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a job that raises counts as failed
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def _checked(wl, job, out, err, checker):
    if err is not None:
        return f"{type(err).__name__}: {err}"
    try:
        wl.check(job, out, checker)
    except Exception as exc:  # a malformed output fails the job, not the run
        return f"{type(exc).__name__}: {exc}"
    return None


def run_workload(name: str, root: Path, seed: int, seconds: float,
                 trace: bool) -> dict:
    cls = WORKLOADS[name]
    ev = _import_program(root) if cls.in_process else None
    setup_times, setup_probes, wl = [], [], None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        wl = cls(ev, root, seed)
        setup_probes.append(wl.probe())
        t0 = time.perf_counter()
        wl.setup()
        jobs = wl.make_round(0)
        setup_times.append(time.perf_counter() - t0)
        setup_probes.append(wl.probe())

    # a traced run covers at least one whole round, so every class is in it
    min_jobs = len(jobs) if trace else MIN_JOBS
    checker = Checker()
    tracer = tr.Tracer()
    latencies, by_class, failures = [], defaultdict(list), []
    plain_s = traced_s = 0.0
    job_class = {}
    probes = []
    attempted = failed = rnd = i = 0
    start = time.perf_counter()
    try:
        while True:
            if i == len(jobs):
                rnd += 1
                jobs, i = wl.make_round(rnd), 0
            if attempted % wl.probe_every == 0:
                probes.append(wl.probe())
            job, jid = jobs[i], attempted
            i += 1
            attempted += 1
            job_class[jid] = job["class"]
            errors = []
            if not trace:
                dt, out, err = _timed(lambda: wl.run(job))
                errors.append(_checked(wl, job, out, err, checker))
                latencies.append(dt)
                by_class[job["class"]].append(dt)
            else:
                for traced in ((False, True) if jid % 2 else (True, False)):
                    if not traced:
                        dt, out, err = _timed(lambda: wl.run(job))
                        plain_s += dt
                    else:
                        if wl.in_process:
                            tracer.job = jid
                            tracer.install(ev)
                        try:
                            dt, out, err = _timed(
                                lambda: wl.run_traced(job, tracer, jid))
                        finally:
                            tracer.uninstall()
                        traced_s += dt
                    errors.append(_checked(wl, job, out, err, checker))
            errors = [e for e in errors if e]
            if errors:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"job {jid} ({job['class']}): {errors[0]}")
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (attempted >= min_jobs
                                       or elapsed >= 3 * seconds):
                break
    finally:
        wl.close()
    measured_s = time.perf_counter() - start

    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "attempted": attempted, "failed": failed, "failures": failures,
        "measured_s": measured_s, "setup_times_s": setup_times,
        "slowdown": sum(probes) / len(probes) / wl.probe_ref_s,
        "setup_slowdown": sum(setup_probes) / len(setup_probes) / wl.probe_ref_s,
    }
    if not trace:
        p90, n = percentile(latencies, 0.9)
        result["samples"] = n
        result["beyond_p90"] = sum(1 for x in latencies if x > p90)
        result["class_p50_ms"] = {c: 1e3 * median(v) for c, v in by_class.items()}
        # throughput of whole rounds, from each class's mean latency, so a
        # run that stops mid-round is not skewed by its partial last round
        ran = {c: n for c, n in wl.mix.items() if by_class[c]}
        round_s = sum(n * sum(by_class[c]) / len(by_class[c])
                      for c, n in ran.items())
        values = {
            "jobs_per_s": (1 - failed / attempted) * sum(ran.values()) / round_s,
            "job_p50_ms": 1e3 * smoothed_percentile(latencies, 0.5, 0.1),
            "job_p90_ms": 1e3 * smoothed_percentile(latencies, 0.9, 0.05),
            "setup_s": median(setup_times),
            "peak_rss_mb": wl.peak_rss_mb(),
            "success_rate": (attempted - failed) / attempted,
            "accuracy_digits": checker.digits(),
        }
        result["measured_metrics"] = values
        values = at_reference_speed(values, result["slowdown"],
                                    result["setup_slowdown"])
        result["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in END_TO_END}
        return result

    layers = tr.layer_metrics(tracer.spans, tracer.work, attempted, traced_s)
    layers.update(wl.extra_layer_metrics())
    layers["trace.overhead"] = (plain_s / traced_s, "ratio")
    result["metrics"] = {k: {"value": layers[k][0], "unit": layers[k][1]}
                         for k in per_layer_names()}
    result["largest_layer_by_class"] = _largest_layers(tracer.spans, job_class)
    result["spans"] = tracer.spans
    return result


def _largest_layers(spans, job_class) -> dict:
    """class -> (layer with the most self time, its share of the traced
    self time of that class)."""
    per_class = defaultdict(lambda: defaultdict(float))
    for job, layers in tr.layer_self_by_job(spans).items():
        for layer, t in layers.items():
            per_class[job_class[job]][layer] += t
    out = {}
    for cls, layers in sorted(per_class.items()):
        top = max(layers, key=layers.get)
        out[cls] = [top, layers[top] / sum(layers.values())]
    return out


def _write_outputs(root: Path, result: dict) -> Path:
    """Write the result, and the spans of a traced run (the latest traced
    run of each workload replaces the previous one's spans)."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = result["workload"]
    spans = result.pop("spans", None)
    if spans is not None:
        with gzip.open(out_dir / f"{name}-spans.jsonl.gz", "wt") as fh:
            for s in spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job]) + "\n")
    path = out_dir / f"{name}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


def _print_human(result: dict):
    name = result["workload"]
    for key, m in result["metrics"].items():
        extra = ""
        if key in ("job_p50_ms", "job_p90_ms"):
            extra = f"  (n={result['samples']}, {result['beyond_p90']} beyond p90)"
        print(f"{name:16s} {key:42s} {m['value']:14.6g} {m['unit']}{extra}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{name:16s} {'error_rate':42s} {error_rate:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} jobs failed)")
    for line in result["failures"]:
        print(f"{name:16s} FAILED {line}")
    for cls, (layer, share) in result.get("largest_layer_by_class", {}).items():
        print(f"{name:16s} largest layer in {cls:20s} {layer:12s} "
              f"{100 * share:5.1f}% of self time")


def _result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def _run_all(args) -> int:
    """Run every workload in its own process and collect the results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, sys.argv[0], "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        prog="bench/run.py",
        description="evometry benchmark: run from the root of a checkout")
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    if args.workload == "all":
        return _run_all(args)
    env = environment(root, args.seed, int(os.environ.get("OPENBLAS_NUM_THREADS", 0)))
    result = run_workload(args.workload, root, args.seed, args.seconds,
                          bool(args.trace))
    result["environment"] = env
    path = _write_outputs(root, result)
    _print_human(result)
    print("environment " + json.dumps(env))
    print(f"details in {path.relative_to(root)}")
    print(_result_line(result))
    return 0
