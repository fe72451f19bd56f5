"""Per-call timings of two evometry trees in one process: the `layers`
block of a BENCH_<pr>.json.

    python tools/layers.py PARENT CHANGE [--qubits 1 2 3 4]
        [--qudits 3 4 5 6 7 8 9 10 11] [--rotations 300] [--seed 1]

PARENT and CHANGE are checkouts (directories holding src/evometry). Each
is imported under its own package name, so both run in this process on
one interpreter, one numpy and one BLAS. The layers are the calls of the
benchmark's echo-circuit job: measure_which_unitary with 512 shots,
superdense_send with 512 shots and which_unitary_distribution, over
pauli_basis(dim=2^n) and weyl_basis(d) without u0, on a Haar unitary and
state; and, on the channel side, retrieval_statistics with 2000 trials of
element 0 of a fresh random map of d = 4 and k = 5 elements on a Haar
state (size key "d4k5"). The benchmark's echo-circuit jobs alternate
their Pauli bases between ones with and without a Haar u0 and give one
circuit in three a one-qubit bystander, so every qubit size is also
timed over pauli_basis(u0) for a Haar u0 drawn once per dimension (key
suffix "u0"), and every size, the u0 ones included, with the state on
twice the basis dimension (suffix "b") for measure_which_unitary alone,
the one layer that reads the state. A rotation draws fresh inputs and a
fresh seed
(a warm loop over repeated inputs reads faster than any real call: over
512 repeated keys a search of a 4-256 entry CDF per key takes 4-9 us and
with fresh keys 9-39 us, while sorting them takes 3.2 us against 3.6,
and the tally's searches of the CDF entries in the sorted keys 0.5-3.7
us against 0.9-8.1) and calls every layer at every size once per tree,
the tree that goes first alternating from rotation to rotation, with the
same fixed work, which never calls the program, before each call. A call
is timed alone with perf_counter_ns.

Prints one JSON object: for each layer and size the median call time of
each tree in microseconds, the change's relative difference of the
medians, and in how many rotations the change's call was the faster.
Set OPENBLAS_NUM_THREADS=1 to match the benchmark's one BLAS thread.
"""
from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SHOTS = 512
TRIALS = 2000
# the random map of the retrieval layer: dimension, element count
MAP_DIM, MAP_ELEMENTS = 4, 5
MAP_KEY = f"d{MAP_DIM}k{MAP_ELEMENTS}"
SIDES = ("parent", "change")
LAYERS = ("measure_which_unitary", "superdense_send",
          "which_unitary_distribution")
RETRIEVAL = "retrieval_statistics"


def load(tree: str, name: str):
    """tree's src/evometry imported as the package name."""
    package = Path(tree) / "src" / "evometry"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_OPS = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]).astype(complex)]


def between() -> None:
    """Fixed work between calls that never calls the program: small kron
    products, mat-vecs and an interpreter loop, as the benchmark's probe
    and checks run between its jobs."""
    v = np.ones(16, dtype=complex) / 4
    for a in range(8):
        m = np.eye(1, dtype=complex)
        for q in range(4):
            m = np.kron(m, _OPS[(a >> q) % 4])
        v = m @ v
        v = v / np.linalg.norm(v)
    sum(range(2000))


def haar(dim: int, rng):
    """A Haar unitary (QR of a complex Gaussian, phases fixed) and a Haar
    unit vector on C^dim."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return q * (d / np.abs(d)), v / np.linalg.norm(v)


def calls(ev, basis, u, psi, seed):
    """The three layers of one tree on one input, as zero-argument calls."""
    return {
        "measure_which_unitary": lambda: ev.measure_which_unitary(
            u, basis, psi, shots=SHOTS, seed=seed),
        "superdense_send": lambda: ev.superdense_send(
            u, basis, shots=SHOTS, seed=seed + 1),
        "which_unitary_distribution": lambda: ev.which_unitary_distribution(
            u, basis),
    }


def retrieval(evs, rng) -> list:
    """The retrieval layer of each tree on one fresh input, as zero-argument
    calls: a random map (the first MAP_DIM columns of a Haar unitary on
    C^(MAP_DIM MAP_ELEMENTS), cut into MAP_ELEMENTS blocks of rows), a
    Haar state and a seed, each tree's map built by its own KrausMap."""
    dim = MAP_DIM * MAP_ELEMENTS
    iso = haar(dim, rng)[0][:, :MAP_DIM]
    ops = tuple(iso.reshape(MAP_ELEMENTS, MAP_DIM, MAP_DIM))
    psi = haar(MAP_DIM, rng)[1]
    seed = int(rng.integers(2 ** 31))
    return [functools.partial(ev.retrieval_statistics, 0, ev.KrausMap(ops),
                              psi, TRIALS, seed) for ev in evs]


def timed(call) -> float:
    """One call after the fixed work, in microseconds."""
    between()
    t0 = time.perf_counter_ns()
    call()
    return (time.perf_counter_ns() - t0) / 1e3


def layers(bystander: bool) -> tuple:
    """The layers timed at a size: measure_which_unitary alone with a
    bystander, since no other layer reads the state."""
    return LAYERS[:1] if bystander else LAYERS


def measure(trees, sizes, rotations: int, seed: int) -> dict:
    """{layer: {size: {side: [call times in us, one per rotation]}}}."""
    evs = [load(tree, f"evometry_{side}") for tree, side in zip(trees, SIDES)]
    rng = np.random.default_rng(seed)
    u0s = {dim: haar(dim, rng)[0] for dim in sorted(
        {dim for _, dim, with_u0, _ in sizes.values() if with_u0})}
    bases = {key: [ev.pauli_basis(u0s[dim] if with_u0 else None, dim=dim)
                   if kind == "n" else ev.weyl_basis(dim) for ev in evs]
             for key, (kind, dim, with_u0, _) in sizes.items()}
    times = {layer: {key: {side: [] for side in SIDES}
                     for key, (*_, bystander) in sizes.items()
                     if layer in layers(bystander)}
             for layer in LAYERS}
    times[RETRIEVAL] = {MAP_KEY: {side: [] for side in SIDES}}
    for r in range(-1, rotations):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        runs = []
        for key, (_, dim, _, bystander) in sizes.items():
            u, psi = haar(dim, rng)
            if bystander:
                psi = haar(2 * dim, rng)[1]
            shot_seed = int(rng.integers(2 ** 31))
            per_tree = [calls(ev, basis, u, psi, shot_seed)
                        for ev, basis in zip(evs, bases[key])]
            runs += [(layer, key, [c[layer] for c in per_tree])
                     for layer in layers(bystander)]
        runs.append((RETRIEVAL, MAP_KEY, retrieval(evs, rng)))
        for layer, key, per_tree in runs:
            for i in order:
                elapsed = timed(per_tree[i])
                # rotation -1 warms both trees and is not kept
                if r >= 0:
                    times[layer][key][SIDES[i]].append(elapsed)
    return times


def summary(times, rotations: int) -> dict:
    """The layers block: its protocol, then per layer and size the two
    medians, their relative difference and the rotations the change won."""
    block = {"protocol": (
        f"{rotations} rotations after one warm rotation, both trees in one "
        "process under two package names; per rotation fresh Haar inputs "
        "and seed, every layer and size called once per tree, the first "
        "tree alternating, the same fixed non-program work before each "
        "call; figures are medians of single calls in microseconds. "
        f"Layers: measure_which_unitary ({SHOTS} shots), superdense_send "
        f"({SHOTS} shots), which_unitary_distribution, over "
        "pauli_basis(dim=2^n) ('n') and weyl_basis(d) ('d') without u0, "
        "and pauli_basis(u0) for a Haar u0 fixed per size ('u0' suffix); "
        "measure_which_unitary also with the state on twice the basis "
        "dimension, a one-qubit bystander ('b' suffix); "
        f"retrieval_statistics ({TRIALS} trials) of element 0 of a fresh "
        f"random map of d = {MAP_DIM} and k = {MAP_ELEMENTS} ('{MAP_KEY}').")}
    for layer, by_size in times.items():
        rows = {}
        for key, sides in by_size.items():
            parent, change = sides["parent"], sides["change"]
            mp, mc = statistics.median(parent), statistics.median(change)
            faster = sum(c < p for p, c in zip(parent, change))
            rows[key] = {"parent": round(mp, 2), "change": round(mc, 2),
                         "change_vs_parent_pct": round(100 * (mc / mp - 1), 1),
                         "change_faster_in": f"{faster} of {len(parent)}"}
        block[f"{layer}_us"] = rows
    return block


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--qubits", type=int, nargs="*", default=[1, 2, 3, 4])
    ap.add_argument("--qudits", type=int, nargs="*",
                    default=list(range(3, 12)))
    ap.add_argument("--rotations", type=int, default=300)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bases = [(f"n{n}", "n", 2 ** n, False) for n in args.qubits]
    bases += [(f"d{d}", "d", d, False) for d in args.qudits]
    bases += [(f"n{n}u0", "n", 2 ** n, True) for n in args.qubits]
    sizes = {key: (kind, dim, with_u0, False)
             for key, kind, dim, with_u0 in bases}
    sizes.update({f"{key}b": (kind, dim, with_u0, True)
                  for key, kind, dim, with_u0 in bases})
    times = measure((args.parent, args.change), sizes, args.rotations,
                    args.seed)
    print(json.dumps(summary(times, args.rotations), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
