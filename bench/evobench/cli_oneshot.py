"""cli-oneshot: the command-line user, one fresh interpreter per job.

Every job runs ``python -m evometry <command> --json`` on input files the
harness wrote, so each call pays interpreter start-up, imports, input
parsing and basis construction again, and no in-process cache can serve
a later job. The jobs cover all nine subcommands.
"""
from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

from . import reference as ref
from .channel_records import COMPRESS_N
from .common import Checker, CheckFailed, Workload

SHOTS = 1000
TRIALS = 2000
STEPS = 100
DELTA = 0.1
TIMEOUT_S = 60

# name: (subcommand, sizes cycled through, jobs per round of 80).
# The 63 start-up-bound jobs hold p50; the d_A = d_B = 8 Schmidt forms and
# the Weyl d = 11 bases (20%) come next, with p90 inside the Weyl block;
# one Pauli dim-16 basis per round is the slowest job.
CLASSES = {
    "basis": ("basis", (("pauli", 2), ("weyl", 3), ("pauli", 4), ("weyl", 5),
                        ("pauli", 8), ("weyl", 7)), 11),
    "measure": ("measure", (("pauli", 2), ("weyl", 3), ("pauli", 4),
                            ("weyl", 5), ("pauli", 8)), 8),
    "channel": ("channel", ((2, 3), (4, 16), (8, 6), (2, 4), (4, 2), (8, 16)), 7),
    "compress": ("compress", ((2, 3), (4, 5), (2, 4), (4, 6), (8, 2)), 6),
    "retrieve": ("retrieve", ((2, 2), (4, 5), (8, 3), (4, 16)), 6),
    "schmidt": ("schmidt", (2, 3, 4), 6),
    "concentrate": ("concentrate", (1, 2, 3, 4), 6),
    "superdense": ("superdense", (2, 3, 4, 5, 8), 7),
    "verify": ("verify", ((2, 4, "computational"), (4, 6, "fourier"),
                          (8, 3, "computational"), (2, 3, "fourier")), 6),
    "schmidt8": ("schmidt", (8,), 4),
    "basis-weyl11": ("basis", (("weyl", 11),), 12),
    "basis-pauli16": ("basis", (("pauli", 16),), 1),
}


def _matrix(m):
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _state(v):
    return {"dim": v.size, "re": v.real.tolist(), "im": v.imag.tolist()}


class CliOneshot(Workload):
    name = "cli-oneshot"
    in_process = False
    probe_every = 4
    probe_ref_s = 0.2
    mix = {c: spec[2] for c, spec in CLASSES.items()}

    def __init__(self, ev, root, seed: int):
        super().__init__(ev, root, seed)
        self.workdir = root / ".bench_work" / f"cli-{os.getpid()}-{id(self)}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.startup_ms: list[float] = []
        self.import_ms: list[float] = []

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.sigmas = {("pauli", d): ref.pauli_strings(d.bit_length() - 1)
                       for d in (2, 4, 8)}
        self.sigmas.update({("weyl", d): ref.clock_shift_products(d)
                            for d in (3, 5, 7)})
        self.compositions = ref.composition_tables(COMPRESS_N)
        rng = np.random.default_rng([self.seed, 0])
        for job in self._jobs(rng, ["basis", "concentrate"], 0):
            self.check(job, self.run(job), Checker())

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def make_round(self, r: int) -> list:
        for old in self.workdir.glob("*.json"):
            old.unlink()
        return super().make_round(r)

    def _write(self, tag, obj) -> str:
        path = self.workdir / f"{tag}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def _jobs(self, rng, order, r):
        jobs, seen = [], dict.fromkeys(CLASSES, 0)
        for t, cls in enumerate(order):
            cmd, sizes, _ = CLASSES[cls]
            o = seen[cls] + r
            seen[cls] += 1
            size = sizes[o % len(sizes)]
            tag = f"r{r}-{t}"
            seed = int(rng.integers(2 ** 31))
            job = {"class": cls, "cmd": cmd, "seed": seed}
            if cmd == "basis":
                kind, d = size
                job.update(kind=kind, dim=d,
                           argv=["basis", "--kind", kind, "--dim", str(d)])
            elif cmd == "measure":
                kind, d = size
                u = ref.haar_unitary(d, rng)
                psi = ref.haar_state(d, rng)
                argv = ["measure", "--unitary", self._write(tag + "-u", _matrix(u)),
                        "--basis", kind,
                        "--state", self._write(tag + "-psi", _state(psi)),
                        "--shots", str(SHOTS), "--seed", str(seed)]
                u0 = None
                if o % 2:
                    u0 = ref.haar_unitary(d, rng)
                    argv += ["--u0", self._write(tag + "-u0", _matrix(u0))]
                job.update(kind=kind, dim=d, u=u, u0=u0, argv=argv)
            elif cmd in ("channel", "compress", "retrieve", "verify"):
                d, k = size[:2]
                ops = ref.random_kraus(d, k, rng)
                path = self._write(tag + "-map", {
                    "dim": d, "kraus": [_matrix(m) for m in ops]})
                argv = [cmd, "--map", path]
                job.update(dim=d, k=k, ops=ops)
                if cmd == "compress":
                    job["n"] = COMPRESS_N[k]
                    argv += ["--n", str(job["n"]), "--delta", repr(DELTA)]
                elif cmd == "retrieve":
                    job["index"] = int(rng.integers(k))
                    job["psi"] = ref.haar_state(d, rng)
                    argv += ["--op-index", str(job["index"]),
                             "--state", self._write(tag + "-psi", _state(job["psi"])),
                             "--trials", str(TRIALS), "--seed", str(seed)]
                elif cmd == "verify":
                    job["ancilla"] = size[2]
                    job["flip"] = int(rng.integers(STEPS)) if o % 2 else None
                    argv += ["--ancilla-basis", size[2], "--steps", str(STEPS),
                             "--seed", str(seed)]
                    if job["flip"] is not None:
                        argv += ["--flip", str(job["flip"])]
                job["argv"] = argv
            elif cmd == "schmidt":
                u = ref.haar_unitary(size * size, rng)
                job.update(dim=size, u=u, argv=[
                    "schmidt", "--unitary", self._write(tag + "-u", _matrix(u))])
            elif cmd == "concentrate":
                alpha = float(rng.uniform(0.3, 0.95))
                job.update(n=size, alpha=alpha, argv=[
                    "concentrate", "--n", str(size), "--alpha", repr(alpha),
                    "--mode", "exact-matrix"])
            else:  # superdense
                u = ref.haar_unitary(size, rng)
                job.update(dim=size, u=u, argv=[
                    "superdense", "--unitary", self._write(tag + "-u", _matrix(u)),
                    "--shots", str(SHOTS), "--seed", str(seed)])
            job["argv"] = job["argv"] + ["--json"]
            jobs.append(job)
        return jobs

    def run(self, job):
        proc = subprocess.run(
            [sys.executable, "-m", "evometry", *job["argv"]], env=self.env,
            cwd=self.root, capture_output=True, text=True, timeout=TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, job, tracer, job_id: int):
        """Run the job in a child that wraps the package before cli.main."""
        spans_path = self.workdir / f"spans-{job_id}.json"
        env = dict(self.env, PYTHONPATH=os.pathsep.join(
            [str(self.root / "src"), str(self.root / "bench")]))
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "evobench.cli_child", str(spans_path),
             *job["argv"]], env=env, cwd=self.root, capture_output=True,
            text=True, timeout=TIMEOUT_S)
        if spans_path.is_file():
            child = json.loads(spans_path.read_text())
            spans_path.unlink()
            self.startup_ms.append(1e3 * (child["main_entered"] - spawned))
            self.import_ms.append(child["import_ms"])
            tracer.adopt(child["spans"], child["work"], job_id)
        return proc.returncode, proc.stdout, proc.stderr

    def probe(self) -> float:
        """Seconds to start an interpreter that imports numpy: the
        start-up every job pays, without the program."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env,
                       cwd=self.root, check=True)
        return time.perf_counter() - t0

    def extra_layer_metrics(self) -> dict:
        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0
        return {"cli.startup_ms": (mean(self.startup_ms), "ms"),
                "cli.import_ms": (mean(self.import_ms), "ms")}

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def check(self, job, out, chk: Checker):
        code, stdout, stderr = out
        if code != 0:
            raise CheckFailed(f"exit code {code}: {stderr.strip()[-200:]}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as err:
            raise CheckFailed(f"report is not JSON ({err})")
        failed = [name for name, ok in report.get("checks", {}).items() if not ok]
        if failed or not report.get("checks"):
            raise CheckFailed(f"report checks failed: {failed}")
        getattr(self, "_check_" + job["cmd"])(job, report, chk)

    def _check_basis(self, job, rep, chk):
        ex, d = rep["exact"], job["dim"]
        chk.same("element count", ex["element_count"], d * d)
        chk.same("label count", len(ex["labels"]), d * d)
        chk.small("Gram deviation", ex["gram_deviation"])
        chk.same("all unitary", ex["all_unitary"], True)

    def _check_measure(self, job, rep, chk):
        law = ref.born_weights(job["u"], job["u0"],
                               self.sigmas[(job["kind"], job["dim"])])
        chk.close("Born law", rep["exact"]["probabilities"], law)
        chk.same("shots counted", sum(rep["empirical"]["counts"]), SHOTS)

    def _check_superdense(self, job, rep, chk):
        d = job["dim"]
        kind = "pauli" if d & (d - 1) == 0 else "weyl"
        law = ref.born_weights(job["u"], None, self.sigmas[(kind, d)])
        chk.close("dense-coding law", rep["exact"]["probabilities"], law)
        chk.same("shots counted", sum(rep["empirical"]["counts"]), SHOTS)
        chk.small("eavesdropper marginal",
                  rep["exact"]["eavesdropper_marginal_deviation"])

    def _check_channel(self, job, rep, chk):
        spectrum = ref.channel_spectrum(job["ops"])
        bits = ref.shannon_bits(spectrum)
        ex = rep["exact"]
        chk.same("element count", ex["element_count"], job["k"])
        chk.close("canonical weights", ex["canonical_probabilities"], spectrum)
        chk.close("map entropy", ex["entropy_bits"], bits, scale=max(1.0, bits))

    def _check_compress(self, job, rep, chk):
        spectrum = ref.channel_spectrum(job["ops"])
        bits = ref.shannon_bits(spectrum)
        comps, sizes = self.compositions[spectrum.size]
        kept, tail = ref.typical_set(spectrum, comps, sizes, DELTA)
        ex = rep["exact"]
        chk.same("typical records kept", ex["kept_dim"], kept)
        chk.close("discarded mass", ex["infidelity_bound"], tail, scale=1.0)
        chk.close("map entropy", ex["entropy_bits"], bits, scale=max(1.0, bits))
        chk.close("compression rate", ex["rate_bits_per_use"],
                  math.log2(kept) / job["n"] if kept else 0.0,
                  scale=max(1.0, bits))

    def _check_retrieve(self, job, rep, chk):
        herald = ref.herald_probability(job["ops"], job["index"], job["psi"])
        ex = rep["exact"]
        chk.close("herald probability", ex["herald_probability"], herald)
        chk.small("retrieval fidelity", ex["success_fidelity"] - 1.0)
        chk.same("retrieval support", ex["support_dim"],
                 ref.channel_spectrum(job["ops"]).size)

    def _check_schmidt(self, job, rep, chk):
        d = job["dim"]
        values = ref.schmidt_values(job["u"], d, d)
        bits = ref.shannon_bits(values ** 2)
        ex = rep["exact"]
        chk.close("Schmidt values", ex["schmidt_values"], values)
        chk.close("interaction entanglement", ex["entanglement_bits"], bits,
                  scale=max(1.0, bits))
        chk.small("Schmidt reconstruction", ex["reconstruction_error"])

    def _check_concentrate(self, job, rep, chk):
        n, alpha = job["n"], job["alpha"]
        law = ref.sector_law(n, alpha, math.sqrt(1 - alpha * alpha))
        sectors = rep["exact"]["sectors"]
        chk.close("sector law", [s["probability"] for s in sectors], law)
        chk.same("sector sizes", [s["term_count"] for s in sectors],
                 [math.comb(n, j) for j in range(n + 1)])
        chk.small("sector deviation", rep["exact"]["sector_deviation"])

    def _check_verify(self, job, rep, chk):
        rows = (np.eye(job["k"]) if job["ancilla"] == "computational"
                else ref.fourier_rows(job["k"]))
        weights = ref.element_weights(ref.rotate_elements(job["ops"], rows))
        ex = rep["exact"]
        chk.same("verdict", ex["accepted"], job["flip"] is None)
        chk.close("element weights", ex["element_weights"], weights)
