"""channel-records: the channel and interaction analyst.

Random Kraus maps, general ones and ones whose canonical elements are
proportional to unitaries, go through the canonical form and its entropy, an
isometric change of representation, the Stinespring dilation and its
readout in two ancilla bases, verification of true and corrupted draw
records, typical-set compression and heralded retrieval. Random
bipartite unitaries go through the operator Schmidt form over prebuilt
bases and the induced local map; some jobs run the exact-matrix
concentration law. channels, storage, interaction and
linalg.deterministic_eigh do the work; the echo circuit never runs and
no basis is built inside the job loop.
"""
from __future__ import annotations

import math

import numpy as np

from . import reference as ref
from .common import Checker, CheckFailed, Workload

STEPS = 64
TRIALS = 2000
DELTA = 0.1
# typical_compress enumerates every composition of n draws over the
# canonical support, so n shrinks as the support grows
COMPRESS_N = {1: 20, 2: 20, 3: 20, 4: 16, 5: 10, 6: 8}

# name: (job kind, dimension, sizes cycled through, jobs per round of 40).
# Channel sizes are element counts k: 1 to d^2 for d <= 4, and d k <= 128
# above, since the dilation is a (d k) x (d k) matrix. Latency bands,
# fastest first: small maps, small Schmidt forms and concentration below
# the d_A = d_B = 4 Schmidt forms, whose block holds p50; then the larger
# d = 2, 4 maps, the d = 8 maps, the d = 8 Schmidt forms, whose block
# holds p90, and one d = 16 map per round.
CLASSES = {
    "channel2": ("channel", 2, (1, 2, 3, 4), 6),
    "channel4": ("channel", 4, (1, 2, 5, 16), 5),
    "channel8": ("channel", 8, (2, 4, 6, 16), 4),
    "channel16": ("channel", 16, (2, 3, 4, 8), 1),
    "schmidt2": ("schmidt", 2, (), 2),
    "schmidt3": ("schmidt", 3, (), 3),
    "schmidt4": ("schmidt", 4, (), 9),
    "schmidt8": ("schmidt", 8, (), 7),
    "concentrate": ("concentrate", 0, (1, 2, 3, 4), 3),
}


class ChannelRecords(Workload):
    mix = {c: spec[3] for c, spec in CLASSES.items()}
    name = "channel-records"

    def setup(self):
        ev = self.ev
        self.bases = {d: ev.pauli_basis(dim=d) if d & (d - 1) == 0
                      else ev.weyl_basis(d) for d in (2, 3, 4, 8)}
        self.compositions = ref.composition_tables(COMPRESS_N)
        rng = np.random.default_rng([self.seed, 0])
        warm = ["channel2", "channel2", "schmidt2", "concentrate"]
        for job in self._jobs(rng, warm, 0):
            self.check(job, self.run(job), Checker())

    def _jobs(self, rng, order, r):
        jobs, seen = [], dict.fromkeys(CLASSES, 0)
        for cls in order:
            kind, d, sizes, _ = CLASSES[cls]
            o = seen[cls] + r
            seen[cls] += 1
            job = {"class": cls, "kind": kind, "dim": d}
            if kind == "channel":
                frame = (o // len(sizes)) % 2 == 1
                job.update(self._channel_inputs(rng, d, sizes[o % len(sizes)],
                                                frame, o))
            elif kind == "schmidt":
                job["u"] = ref.haar_unitary(d * d, rng)
            else:
                job["n"] = sizes[o % len(sizes)]
                job["alpha"] = float(rng.uniform(0.3, 0.95))
            jobs.append(job)
        return jobs

    @staticmethod
    def _channel_inputs(rng, d, k, frame, o):
        # frame maps have canonical elements proportional to unitaries,
        # where the closed-form herald rate applies
        ops = (ref.random_frame_kraus if frame else ref.random_kraus)(d, k, rng)
        rows = np.eye(k, dtype=complex) if o % 2 == 0 else ref.fourier_rows(k)
        read = ref.rotate_elements(ops, rows)
        w = ref.element_weights(read)
        vseed = int(rng.integers(2 ** 31))
        claimed = [int(i) for i in np.random.default_rng(vseed).choice(
            k, size=STEPS, p=w / w.sum())]
        flipped = None
        if k > 1:
            flipped = list(claimed)
            at = int(rng.integers(STEPS))
            flipped[at] = (flipped[at] + 1) % k
        return {
            "k": k, "frame": frame, "ops": ops, "rows": rows, "read": read,
            "iso": ref.isometry_rows(k, k + 1 + o % 2, rng),
            "vseed": vseed, "claimed": claimed, "flipped": flipped,
            "index": int(rng.integers(k)), "psi": ref.haar_state(d, rng),
            "rseed": int(rng.integers(2 ** 31)),
        }

    def run(self, job):
        ev = self.ev
        kind = job["kind"]
        if kind == "schmidt":
            basis = self.bases[job["dim"]]
            schmidt = ev.operator_schmidt(job["u"], basis, basis)
            induced = ev.induced_local_map(job["u"], "A", "maximally_mixed")
            return {"schmidt": schmidt, "induced_entropy": ev.entropy(induced)}
        if kind == "concentrate":
            return {"dist": ev.concentrate(job["n"], job["alpha"],
                                           mode="exact-matrix")}
        m = ev.KrausMap(tuple(job["ops"]))
        out = {
            "canonical": ev.canonical_kraus(m),
            "entropy": ev.entropy(m),
            "rotated_entropy": ev.entropy(ev.kraus_rotation(m, job["iso"])),
        }
        dil = ev.stinespring(m)
        out["native"] = ev.kraus_from_ancilla_basis(dil)
        out["readout"] = ev.kraus_from_ancilla_basis(dil, job["rows"])
        claim_map = ev.KrausMap(tuple(job["read"]))
        out["verify_true"] = ev.verify_sequence(
            dil, job["rows"], ev.EvolutionSequence(claim_map, job["claimed"]),
            job["vseed"])
        if job["flipped"] is not None:
            out["verify_flipped"] = ev.verify_sequence(
                dil, job["rows"], ev.EvolutionSequence(claim_map, job["flipped"]),
                job["vseed"])
        if job["k"] in COMPRESS_N:
            out["compress"] = ev.typical_compress(m, COMPRESS_N[job["k"]], DELTA)
        out["retrieval"] = ev.retrieval_statistics(
            job["index"], m, ev.PureState(job["psi"]), TRIALS, job["rseed"])
        return out

    def check(self, job, out, chk: Checker):
        kind = job["kind"]
        if kind == "schmidt":
            self._check_schmidt(job, out, chk)
        elif kind == "concentrate":
            self._check_concentrate(job, out["dist"], chk)
        else:
            self._check_channel(job, out, chk)

    def _check_channel(self, job, out, chk):
        ops, k = job["ops"], job["k"]
        spectrum = ref.channel_spectrum(ops)
        bits = ref.shannon_bits(spectrum)
        chk.close("canonical weights", out["canonical"].probabilities, spectrum)
        chk.close("map entropy", out["entropy"], bits, scale=max(1.0, bits))
        chk.close("entropy after isometric mixing", out["rotated_entropy"], bits,
                  scale=max(1.0, bits))
        chk.close("Stinespring round trip", np.stack(out["native"].operators),
                  np.stack(ops), scale=1.0)
        chk.close("round-trip channel state",
                  ref.channel_state(out["native"].operators),
                  ref.channel_state(ops))
        chk.close("ancilla-basis readout", np.stack(out["readout"].operators),
                  np.stack(job["read"]), scale=1.0)
        record = out["verify_true"]
        chk.same("true record accepted", record.accepted, True)
        chk.close("step weights", record.step_weights,
                  ref.element_weights(job["read"]))
        if job["flipped"] is not None:
            chk.same("flipped record rejected", out["verify_flipped"].accepted, False)
        if "compress" in out:
            tc = out["compress"]
            comps, sizes = self.compositions[k]
            kept, tail = ref.typical_set(spectrum, comps, sizes, DELTA)
            chk.same("typical records kept", tc.kept_dim, kept)
            chk.close("discarded mass", tc.infidelity_bound, tail, scale=1.0)
            n = int(comps[0].sum())
            chk.close("compression rate", tc.rate, math.log2(kept) / n if kept else 0.0,
                      scale=max(1.0, bits))
        stats = out["retrieval"]
        herald = ref.herald_probability(ops, job["index"], job["psi"])
        chk.close("herald probability", stats["herald_probability"], herald)
        if job["frame"]:
            chk.close("closed-form herald probability", stats["herald_probability"],
                      ref.herald_closed_form(ops, job["index"], job["psi"]))
        chk.small("retrieval fidelity", stats["success_fidelity"] - 1.0)
        chk.same("retrieval support", stats["support_dim"], spectrum.size)
        sigma = math.sqrt(max(0.0, herald * (1 - herald)) * TRIALS)
        if abs(stats["successes"] - herald * TRIALS) > 8 * sigma + 1:
            raise CheckFailed(f"herald count {stats['successes']} is more than "
                              f"8 sigma from {herald * TRIALS:.1f}")

    @staticmethod
    def _check_schmidt(job, out, chk):
        d, u = job["dim"], job["u"]
        schmidt = out["schmidt"]
        values = ref.schmidt_values(u, d, d)
        chk.close("Schmidt values", schmidt.values, values)
        chk.small("Schmidt normalisation", float(schmidt.values @ schmidt.values) - 1.0)
        rebuilt = sum(s * np.kron(a, b) for s, a, b in
                      zip(schmidt.values, schmidt.ops_a, schmidt.ops_b))
        chk.close("Schmidt reconstruction", rebuilt, u, scale=1.0)
        bits = ref.shannon_bits(values ** 2)
        chk.close("induced-map entropy", out["induced_entropy"], bits,
                  scale=max(1.0, bits))

    @staticmethod
    def _check_concentrate(job, dist, chk):
        n, alpha = job["n"], job["alpha"]
        law = ref.sector_law(n, alpha, math.sqrt(1 - alpha * alpha))
        chk.close("sector law", dist.probabilities, law)
        chk.small("sector deviation", dist.sector_deviation)
        chk.same("sector sizes", [r.term_count for r in dist.records],
                 [math.comb(n, j) for j in range(n + 1)])
