"""Outside-in tracing: wrap the package's public functions with spans.

The tracer enumerates the package's modules and their public functions
at run time, so a function the program adds or deletes needs no change
here. Each function is wrapped once and the wrapper is bound wherever
the package binds the original: module attributes, aliases such as
``from .channels import entropy as map_entropy``, names re-exported by
the package and values of module-level dicts (the CLI's command table).
Calls between modules look names up in module globals, so they are
traced too. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("basis", "measure", "superdense", "channels", "storage",
          "interaction", "linalg", "formats", "cli")

# Functions whose mean self time per call is reported.
FUNCTIONS = (
    "basis.pauli_basis", "basis.weyl_basis", "basis.gram", "basis.expand",
    "measure.measure_which_unitary", "measure.measure_which_unitary_qudit",
    "superdense.superdense_send",
    "channels.canonical_kraus", "channels.stinespring",
    "storage.typical_compress", "storage.verify_sequence",
    "storage.retrieval_statistics",
    "interaction.bipartite_expand", "interaction.operator_schmidt",
    "linalg.deterministic_eigh",
)

# Work counts, computed from the sizes of what a call returned.
WORK = ("basis.elements", "measure.outcomes", "interaction.coefficients")


def _work(name: str, result):
    """(counter, amount) for a call that does countable work, else None."""
    layer, _, func = name.partition(".")
    try:
        if layer == "basis" and func.endswith("_basis"):
            return "basis.elements", result.dim ** 2
        if layer == "measure" and func.startswith("measure_"):
            return "measure.outcomes", result[0].probabilities.size
        if name == "interaction.operator_schmidt":
            da = result.ops_a[0].shape[0]
            db = result.ops_b[0].shape[0]
            return "interaction.coefficients", (da * db) ** 2
    except (AttributeError, IndexError, TypeError):
        return None
    return None


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: int | None


def package_modules(package) -> list:
    """The package and every public submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.work: dict = defaultdict(lambda: defaultdict(int))  # job -> counter
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0,
                              stack[-1] if stack else -1, self.job))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = time.perf_counter()
            counted = _work(name, result)
            if counted:
                work[self.job][counted[0]] += counted[1]
            return result

        return traced

    def install(self, package) -> int:
        """Wrap every public function of the package; returns how many."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = package_modules(package)
        names = {m.__name__ for m in mods}
        wrappers = {}
        for mod in mods:
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and obj.__module__ in names
                        and not obj.__name__.startswith("_")
                        and id(obj) not in wrappers):
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for mod in mods:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._undo.append((ns, attr, obj))
                    ns[attr] = wrappers[id(obj)]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in wrappers:
                            self._undo.append((obj, key, val))
                            obj[key] = wrappers[id(val)]
        return len(wrappers)

    def adopt(self, spans, work: dict, job: int):
        """Append spans and work counts recorded by a child process."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append(Span(name, start, end,
                                   parent + base if parent >= 0 else -1, job))
        for counter, amount in work.items():
            self.work[job][counter] += amount

    def uninstall(self):
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other; the covered time is their summed duration.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]


def layer_self_by_job(spans) -> dict:
    """job -> layer -> self seconds."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, self_times(spans)):
        out[s.job][s.name.split(".", 1)[0]] += t
    return out


def layer_metrics(spans, work: dict, jobs: int, job_seconds: float) -> dict:
    """Per-layer metrics over the traced jobs, as name -> (value, unit).

    calls and self_s are means per job; self_frac divides a layer's self
    time by the total job time; self_ms is the mean self time per call.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    fn_calls = defaultdict(int)
    fn_self = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += t
        fn_calls[s.name] += 1
        fn_self[s.name] += t
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / jobs, "count")
        out[f"{layer}.self_s"] = (self_s[layer] / jobs, "s")
        out[f"{layer}.self_frac"] = (self_s[layer] / job_seconds, "ratio")
    for name in FUNCTIONS:
        n = fn_calls[name]
        out[f"{name}.self_ms"] = (1e3 * fn_self[name] / n if n else 0.0, "ms")
    for counter in WORK:
        total = sum(per_job.get(counter, 0) for per_job in work.values())
        out[counter] = (total / jobs, "count")
    return out
