"""echo-circuit: many evolutions scanned over fixed, prebuilt bases.

The library user of the paper's which-unitary measurement: bases are
built once in setup, then every job draws a fresh Haar unitary and state
and runs the exact law or the simulated echo circuit with shots, plus a
dense-coding round with shots. measure and superdense do most of the
work; basis only expands; channels, storage and interaction stay idle.
"""
from __future__ import annotations

import numpy as np

from . import reference as ref
from .common import Checker, Workload

SHOTS = 512

# name: (basis kind, qubits n or qudit d, mode, jobs per round of 40).
# Latency bands, fastest first: the 15 small jobs (< 10 ms), the Pauli
# n = 3 circuits that hold p50, the d = 11 circuits, the n = 4 exact
# laws, and the n = 4 circuits (20%) that hold p90 in their middle.
CLASSES = {
    "pauli1": ("pauli", 1, "mixed", 3),
    "pauli2": ("pauli", 2, "mixed", 3),
    "weyl3": ("weyl", 3, "mixed", 3),
    "weyl5": ("weyl", 5, "mixed", 2),
    "weyl7": ("weyl", 7, "mixed", 2),
    "pauli3-exact": ("pauli", 3, "exact", 2),
    "pauli3-circuit": ("pauli", 3, "circuit", 10),
    "weyl11-circuit": ("weyl", 11, "circuit", 5),
    "pauli4-exact": ("pauli", 4, "exact", 2),
    "pauli4-circuit": ("pauli", 4, "circuit", 8),
}


class EchoCircuit(Workload):
    mix = {c: spec[3] for c, spec in CLASSES.items()}
    name = "echo-circuit"

    def setup(self):
        """Build the bases and the harness's own operator tables."""
        ev = self.ev
        rng = np.random.default_rng([self.seed, 0])
        self.bases, self.sigmas, self.u0 = {}, {}, {}
        for n in range(1, 5):
            d = 2 ** n
            self.u0[n] = ref.haar_unitary(d, rng)
            self.bases[("pauli", n, False)] = ev.pauli_basis(dim=d)
            self.bases[("pauli", n, True)] = ev.pauli_basis(self.u0[n])
            self.sigmas[("pauli", n)] = ref.pauli_strings(n)
        for d in (3, 5, 7, 11):
            self.bases[("weyl", d, False)] = ev.weyl_basis(d)
            self.sigmas[("weyl", d)] = ref.clock_shift_products(d)
        # warm-up: an exact and a circuit job on each basis family
        for job in self._jobs(rng, ["pauli1", "pauli1", "weyl3", "weyl3"], 0):
            self.check(job, self.run(job), Checker())

    def _jobs(self, rng, order, r):
        jobs, seen = [], dict.fromkeys(CLASSES, 0)
        for cls in order:
            kind, size, mode, _ = CLASSES[cls]
            o = seen[cls] + r
            seen[cls] += 1
            d = 2 ** size if kind == "pauli" else size
            if mode == "mixed":
                mode = "exact" if o % 2 == 0 else "circuit"
            with_u0 = kind == "pauli" and (o // 2) % 2 == 1
            bystander = mode == "circuit" and o % 3 == 0
            jobs.append({
                "class": cls, "kind": kind, "size": size, "dim": d,
                "mode": mode, "u0": with_u0,
                "u": ref.haar_unitary(d, rng),
                "psi": ref.haar_state(2 * d if bystander else d, rng),
                "bystander": bystander,
                "seed": int(rng.integers(2 ** 31)),
            })
        return jobs

    def run(self, job):
        ev = self.ev
        basis = self.bases[(job["kind"], job["size"], job["u0"])]
        results = None
        if job["mode"] == "exact":
            dist = ev.which_unitary_distribution(job["u"], basis)
        elif job["kind"] == "pauli":
            dist, results = ev.measure_which_unitary(
                job["u"], basis, job["psi"], shots=SHOTS, seed=job["seed"])
        else:
            dist, results = ev.measure_which_unitary_qudit(
                job["u"], basis, job["psi"], shots=SHOTS, seed=job["seed"])
        sent = ev.superdense_send(job["u"], basis, shots=SHOTS,
                                  seed=job["seed"] + 1)
        return dist, results, sent

    def check(self, job, out, chk: Checker):
        dist, results, sent = out
        d = job["dim"]
        sigmas = self.sigmas[(job["kind"], job["size"])]
        u0 = self.u0[job["size"]] if job["u0"] else None
        law = ref.born_weights(job["u"], u0, sigmas)
        chk.close("Born law", dist.probabilities, law)
        if results is not None:
            chk.same("shots counted", int(dist.counts.sum()), SHOTS)
            chk.same("outcomes reported", [r.outcome for r in results],
                     [int(a) for a in np.flatnonzero(dist.counts)])
            for r in results:
                want = ref.collapsed_state(u0, sigmas[r.outcome], job["psi"], d)
                got = r.collapsed.amplitudes
                chk.close("collapsed state", ref.phase_aligned(got, want), want)
                chk.close("branch probability", r.exact_prob, law[r.outcome],
                          scale=law.max())
                if job["bystander"]:
                    chk.close("bystander state", ref.bystander_state(got, d),
                              ref.bystander_state(job["psi"], d))
        chk.close("dense-coding law", sent.probabilities, law)
        chk.same("dense-coding shots", int(sent.counts.sum()), SHOTS)
        chk.close("eavesdropper marginal", sent.eavesdropper_marginal,
                  np.eye(d) / d)

