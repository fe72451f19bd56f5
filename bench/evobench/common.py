"""Statistics, check bookkeeping and the environment stamp."""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np

# An output that misses its reference by more than this relative
# deviation fails the job. The numerics agree to ~1e-13 at this commit,
# so the gap leaves room for a rewrite that moves the last bits.
REL_TOL = 1e-8
DIGITS_CAP = 16.0


class CheckFailed(Exception):
    """An output disagreed with its independent reference."""


def percentile(values, q: float) -> tuple[float, int]:
    """Linearly interpolated q-quantile (0 <= q <= 1) and the sample count."""
    a = sorted(values)
    if not a:
        raise ValueError("percentile of no samples")
    rank = q * (len(a) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(a) - 1)
    return a[lo] + (a[hi] - a[lo]) * (rank - lo), len(a)


def median(values) -> float:
    return percentile(values, 0.5)[0]


def smoothed_percentile(values, q: float, half_width: float) -> float:
    """Mean of the samples whose rank lies within q +- half_width.

    On a shared machine that switches between a fast and a slower state
    within seconds (a 2-vCPU virtual machine measured 4.4 against 6.2 ms
    for one Python loop), a plain order statistic jumps between the two
    states' values from run to run, while this mean moves in proportion
    to the time spent in each.
    """
    a = sorted(values)
    lo = math.floor(max(0.0, q - half_width) * (len(a) - 1))
    hi = math.ceil(min(1.0, q + half_width) * (len(a) - 1))
    window = a[lo:hi + 1]
    return sum(window) / len(window)


class Checker:
    """Compares outputs with references and keeps the worst relative
    deviation seen, from which accuracy_digits is derived."""

    def __init__(self):
        self.worst = 0.0

    def close(self, what: str, got, ref, scale: float | None = None):
        """Require max|got - ref| / scale <= REL_TOL.

        scale defaults to max|ref|, the size of the reference quantity.
        """
        got = np.asarray(got, dtype=complex)
        ref = np.asarray(ref, dtype=complex)
        if got.shape != ref.shape:
            raise CheckFailed(f"{what}: shape {got.shape} != {ref.shape}")
        if scale is None:
            scale = float(np.abs(ref).max()) if ref.size else 1.0
        dev = float(np.abs(got - ref).max()) / scale if got.size else 0.0
        if not dev <= REL_TOL:
            raise CheckFailed(f"{what}: relative deviation {dev:.3e}")
        self.worst = max(self.worst, dev)

    def small(self, what: str, residual: float, scale: float = 1.0):
        """Require a residual the program reports to be ~0 relative to scale."""
        self.close(what, residual, 0.0, scale)

    @staticmethod
    def same(what: str, got, ref):
        """Require exact equality (counts, verdicts, sizes)."""
        if got != ref:
            raise CheckFailed(f"{what}: got {got!r}, expected {ref!r}")

    def digits(self) -> float:
        if self.worst <= 0.0:
            return DIGITS_CAP
        return min(DIGITS_CAP, -math.log10(self.worst))


def interleave(counts: dict) -> list:
    """Order one round of jobs so that every prefix holds each class in
    proportion to its count (largest deficit first, ties by class order).

    A run that stops mid-round then has each class within one job of its
    share, which keeps p50 and p90 inside the size classes meant to hold
    them.
    """
    total = sum(counts.values())
    given = dict.fromkeys(counts, 0)
    order = []
    for t in range(1, total + 1):
        cls = max(counts, key=lambda c: t * counts[c] / total - given[c])
        given[cls] += 1
        order.append(cls)
    return order


def at_reference_speed(values: dict, slowdown: float,
                       setup_slowdown: float) -> dict:
    """Rescale time metrics to the reference machine speed.

    A slowdown is a mean probe time over the reference probe time (above 1
    while the machine runs slower); slowdown covers the job loop and
    setup_slowdown the set-ups. Times are divided by theirs, the rate is
    multiplied, everything else is left as measured.
    """
    out = dict(values)
    out["jobs_per_s"] = values["jobs_per_s"] * slowdown
    out["job_p50_ms"] = values["job_p50_ms"] / slowdown
    out["job_p90_ms"] = values["job_p90_ms"] / slowdown
    out["setup_s"] = values["setup_s"] / setup_slowdown
    return out


def checkout_root() -> Path:
    """The checkout the benchmark runs from; it must hold the sources."""
    root = Path.cwd()
    if not (root / "src" / "evometry" / "__init__.py").is_file():
        raise SystemExit(
            "error: run from the root of an evometry checkout "
            "(src/evometry is missing here)"
        )
    return root


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    """Stamp written with every result."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    lapack = deps.get("lapack", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "lapack": f"{lapack.get('name', '?')} {lapack.get('version', '?')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "seed": seed,
    }


_PROBE_OPS = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]], dtype=complex)]


class Workload:
    """What the runner needs from a workload; defaults fit one that calls
    the library in process.

    A subclass sets ``name`` and ``mix`` (jobs per round of each class)
    and defines ``setup()`` (timed as set-up), ``_jobs(rng, order, r)``
    (the inputs of the listed classes in round r), ``run(job)`` (the timed
    program call) and ``check(job, out, checker)`` (raises CheckFailed
    when an output misses its reference).
    """

    in_process = True
    # the probe runs before every probe_every-th job; probe_ref_s is its
    # duration at the reference speed that times are reported at
    probe_every = 1
    probe_ref_s = 2.2e-3

    def __init__(self, ev, root: Path, seed: int):
        self.ev = ev
        self.root = root
        self.seed = seed

    def make_round(self, r: int) -> list:
        """The jobs of round r: the mix in interleaved order, inputs drawn
        from (seed, r)."""
        return self._jobs(np.random.default_rng([self.seed, 1, r]),
                          interleave(self.mix), r)

    def close(self):
        pass

    def probe(self) -> float:
        """Seconds taken by a fixed piece of work of the kind the jobs do:
        small kron products, mat-vecs and interpreter loops. It never calls
        the program, so no change to the program moves it."""
        t0 = time.perf_counter()
        v = np.ones(16, dtype=complex) / 4
        for a in range(16):
            m = np.eye(1, dtype=complex)
            for q in range(4):
                m = np.kron(m, _PROBE_OPS[(a >> q) % 4])
            v = m @ v
            v = v / np.linalg.norm(v)
        return time.perf_counter() - t0

    def run_traced(self, job, tracer, job_id: int):
        """Run the job while the runner has the tracer installed."""
        return self.run(job)

    def extra_layer_metrics(self) -> dict:
        return {"cli.startup_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms")}

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
