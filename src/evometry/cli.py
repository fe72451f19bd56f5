"""Command line front end: reproducible experiments, JSON reports.

Every subcommand computes exact figures, optionally samples with a
mandatory seed, runs the owning module's invariant checks, and emits a
report that is byte-identical across runs with the same configuration.
Wall time goes to stderr so it never perturbs the report. Exit status: 0
when all checks pass, 1 when a check fails, 2 on input errors.

Each cmd_* imports the package modules it uses when it runs, and the
parser holds only names, so a call loads the modules of its subcommand
and no others: basis loads basis, channel loads channels, and neither
loads the measure, storage, interaction or superdense layers. Start-up
is most of a short call, and a module that is not loaded is not compiled.
"""
from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

DEFAULT_TOL = 1e-9


# each basis kind of basis --kind and measure --basis: the name of its
# builder in basis, called with dim= and u0=
_KINDS = {"pauli": "pauli_basis", "weyl": "weyl_basis"}


def _tolerance(text: str) -> float:
    """--tol: a finite, non-negative number; anything else is a usage error."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite, non-negative number, got {text!r}"
        )
    return tol


def _count(text: str) -> int:
    """--shots, --trials, --steps: a non-negative integer, refused at parse
    time, before any computation runs."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return n


def _dims(text: str) -> tuple:
    """schmidt --dims: two positive integers dA,dB, refused at parse time."""
    try:
        da, db = (int(x) for x in text.split(","))
    except ValueError:
        da = db = 0
    if min(da, db) < 1:
        raise argparse.ArgumentTypeError(
            f"must be two positive integers dA,dB, got {text!r}"
        )
    return da, db


def _floats(a):
    return [float(x) for x in np.asarray(a).ravel()]


def _ints(a):
    return [int(x) for x in np.asarray(a).ravel()]


def cmd_basis(args):
    from . import basis as bases

    basis = getattr(bases, _KINDS[args.kind])(dim=args.dim)
    dev = bases._family_gram_deviation(basis)
    report = {
        "exact": {
            "labels": list(basis.labels),
            "element_count": len(basis),
            "gram_deviation": dev,
            "all_unitary": bool(basis.is_unitary),
        },
    }
    checks = {"orthogonality": dev <= args.tol}
    return report, checks


def cmd_measure(args):
    from . import basis as bases
    from . import measure
    from .formats import load_state, load_unitary
    from .linalg import _unitary

    u = load_unitary(args.unitary)
    d = u.shape[0]
    # checked against d here: pauli_basis would take its dim from u0
    u0 = _unitary(load_unitary(args.u0), d, "u0") if args.u0 else None
    basis = getattr(bases, _KINDS[args.basis])(dim=d, u0=u0)
    psi = measure.PureState(load_state(args.state, d))
    exact = measure.which_unitary_distribution(u, basis)
    dist, results = measure.measure_which_unitary(
        u, basis, psi, shots=args.shots, seed=args.seed
    )
    circuit_dev = float(
        np.abs(dist.probabilities - exact.probabilities).max()
    )
    total = float(dist.probabilities.sum())
    report = {
        "config": {"dim": d},
        "exact": {
            "labels": list(basis.labels),
            "probabilities": _floats(exact.probabilities),
        },
        "empirical": {
            "counts": _ints(dist.counts) if dist.counts is not None else None,
        },
        "circuit": {
            "probability_deviation": circuit_dev,
            "distinct_outcomes": len(results),
        },
    }
    checks = {
        "born_rule_circuit": circuit_dev <= args.tol,
        "normalized": abs(total - 1.0) <= args.tol,
    }
    return report, checks


def cmd_channel(args):
    from .channels import canonical_kraus, choi, entropy
    from .formats import load_map
    from .linalg import _isometry_deviation, partial_trace

    m = load_map(args.map)
    canon = canonical_kraus(m)
    d = m.dim
    tp_dev = _isometry_deviation(m.operators.reshape(-1, d))
    c = choi(m)
    acted = partial_trace(c.matrix, (d, d), keep=1)
    report = {
        "exact": {
            "dim": d,
            "element_count": len(m),
            "canonical_probabilities": _floats(canon.probabilities),
            "entropy_bits": float(entropy(m)),
            "trace_preservation_deviation": tp_dev,
            "choi_trace_deviation": float(abs(np.trace(c.matrix) - 1.0)),
            "choi_acted_marginal_deviation": float(
                np.abs(acted - np.eye(d) / d).max()
            ),
        },
    }
    checks = {
        "trace_preserving": tp_dev <= args.tol,
        "canonical_normalized":
            abs(float(canon.probabilities.sum()) - 1.0) <= args.tol,
    }
    return report, checks


def cmd_compress(args):
    from .channels import entropy
    from .formats import load_map
    from .storage import typical_compress

    m = load_map(args.map)
    tc = typical_compress(m, args.n, args.delta)
    rate_target = entropy(m)
    report = {
        "exact": {
            "kept_dim": tc.kept_dim,
            "rate_bits_per_use": tc.rate,
            "infidelity_bound": tc.infidelity_bound,
            "entropy_bits": rate_target,
            "rate_deviation": abs(tc.rate - rate_target),
        },
    }
    checks = {
        "kept_nonempty": tc.kept_dim >= 1,
        "tail_in_range": 0.0 <= tc.infidelity_bound <= 1.0,
    }
    return report, checks


def cmd_retrieve(args):
    from .formats import load_map, load_state
    from .measure import PureState
    from .storage import retrieval_statistics

    m = load_map(args.map)
    psi = PureState(load_state(args.state, m.dim))
    stats = retrieval_statistics(args.op_index, m, psi, args.trials, args.seed)
    p = stats["herald_probability"]
    sigma = (
        (p * (1 - p) / args.trials) ** 0.5 if args.trials else 0.0
    )
    herald_ok = (
        args.trials == 0
        or abs(stats["empirical_rate"] - p) <= 5 * sigma + 1e-15
    )
    report = {
        "exact": {
            "support_dim": stats["support_dim"],
            "herald_probability": p,
            "success_fidelity": stats["success_fidelity"],
        },
        "empirical": {
            "successes": stats["successes"],
            "rate": stats["empirical_rate"],
        },
    }
    checks = {
        "success_fidelity": abs(stats["success_fidelity"] - 1.0) <= args.tol,
        "herald_within_5sigma": herald_ok,
    }
    return report, checks


def cmd_schmidt(args):
    from .formats import load_unitary
    from .interaction import operator_schmidt
    from .linalg import shannon_entropy

    u = load_unitary(args.unitary)
    schmidt = operator_schmidt(u, dims=args.dims)
    da, db = schmidt.ops_a.shape[-1], schmidt.ops_b.shape[-1]
    su = shannon_entropy(schmidt.values ** 2)
    recon = float(np.linalg.norm(schmidt.reconstruct() - u))
    norm_dev = float(abs(np.sum(schmidt.values ** 2) - 1.0))
    report = {
        "config": {"dims": [da, db]},
        "exact": {
            "schmidt_values": _floats(schmidt.values),
            "entanglement_bits": float(su),
            "reconstruction_error": recon,
        },
    }
    checks = {
        "reconstruction": recon <= args.tol,
        "values_normalized": norm_dev <= args.tol,
    }
    return report, checks


def cmd_concentrate(args):
    from .interaction import concentrate

    dist = concentrate(
        args.n, args.alpha, args.beta, mode=args.mode,
        seed=args.seed, shots=args.shots,
    )
    probs = dist.probabilities
    sample_counts = (
        _ints(np.bincount(dist.samples, minlength=args.n + 1))
        if dist.samples is not None else None
    )
    report = {
        "exact": {
            "sectors": [
                {"k": r.k, "term_count": r.term_count,
                 "probability": r.probability}
                for r in dist.records
            ],
            "argmax_k": int(np.argmax(probs)),
            "yield_bits": dist.yield_bits(),
            "yield_per_copy": dist.yield_bits() / args.n,
            "expected_term_count": dist.expected_term_count(),
            "sector_deviation": dist.sector_deviation,
        },
        "empirical": {"sector_counts": sample_counts},
    }
    checks = {"normalized": abs(float(probs.sum()) - 1.0) <= args.tol}
    if dist.sector_deviation is not None:
        checks["sectors_match"] = dist.sector_deviation <= args.tol
    return report, checks


def cmd_superdense(args):
    from .basis import _default_basis
    from .formats import load_unitary
    from .superdense import superdense_send

    u = load_unitary(args.unitary)
    d = u.shape[0]
    kind, basis = _default_basis(d)
    tr = superdense_send(u, basis, shots=args.shots, seed=args.seed)
    eav_dev = float(
        np.abs(tr.eavesdropper_marginal - np.eye(d) / d).max()
    )
    report = {
        "config": {"dim": d, "basis": kind},
        "exact": {
            "labels": list(tr.labels),
            "probabilities": _floats(tr.probabilities),
            "eavesdropper_marginal_deviation": eav_dev,
            "classical_bits_per_system": float(np.log2(d * d)),
        },
        "empirical": {
            "counts": _ints(tr.counts) if tr.counts is not None else None,
        },
    }
    checks = {
        "eavesdropper_ignorant": eav_dev <= args.tol,
        "normalized": abs(float(tr.probabilities.sum()) - 1.0) <= args.tol,
    }
    return report, checks


def cmd_verify(args):
    from .channels import _born_weights, kraus_from_ancilla_basis, stinespring
    from .formats import load_map
    from .linalg import _fourier, _sample
    from .storage import EvolutionSequence, verify_sequence

    m = load_map(args.map)
    dil = stinespring(m)
    ab = _fourier(dil.ancilla_dim) if args.ancilla_basis == "fourier" else None
    rep = kraus_from_ancilla_basis(dil, ab)
    if args.seed is None:
        raise ValueError("--seed is required for verify")
    weights = _born_weights(rep)
    claimed = _sample(weights, args.steps, args.seed).tolist()
    if args.flip is not None:
        if not 0 <= args.flip < args.steps:
            raise ValueError("--flip index out of range")
        if len(rep) == 1:
            raise ValueError("--flip needs a map of two or more elements: "
                             "a one-element record cannot be corrupted")
        claimed[args.flip] = (claimed[args.flip] + 1) % len(rep)
    record = verify_sequence(
        dil, ab, EvolutionSequence(rep, tuple(claimed)), args.seed
    )
    freq = np.bincount(record.sampled, minlength=len(rep))
    expected = args.flip is None
    report = {
        "exact": {
            "element_weights": _floats(weights),
            "accepted": bool(record.accepted),
            "expected_verdict": expected,
        },
        "empirical": {"outcome_counts": _ints(freq)},
    }
    checks = {"verdict_expected": record.accepted == expected}
    return report, checks


_COMMANDS = {
    "basis": cmd_basis,
    "measure": cmd_measure,
    "channel": cmd_channel,
    "compress": cmd_compress,
    "retrieve": cmd_retrieve,
    "schmidt": cmd_schmidt,
    "concentrate": cmd_concentrate,
    "superdense": cmd_superdense,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="stream seed; mandatory whenever sampling occurs")
    common.add_argument("--json", action="store_true",
                        help="emit the JSON report on stdout")
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="tolerance for the invariant checks")

    parser = argparse.ArgumentParser(
        prog="evometry",
        description="probabilistic measurement and information content "
                    "of quantum evolutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common],
                       help="build an orthogonal unitary basis")
    p.add_argument("--kind", choices=tuple(_KINDS), default="pauli")
    p.add_argument("--dim", type=int, default=2)

    p = sub.add_parser("measure", parents=[common],
                       help="which-unitary measurement of an evolution")
    p.add_argument("--unitary", required=True)
    p.add_argument("--basis", choices=tuple(_KINDS), default="pauli")
    p.add_argument("--u0", default=None,
                   help="reference unitary prefacing every basis element")
    p.add_argument("--state", default="zero")
    p.add_argument("--shots", type=_count, default=0)

    p = sub.add_parser("channel", parents=[common],
                       help="canonical form and entropy of a channel")
    p.add_argument("--map", required=True)

    p = sub.add_parser("compress", parents=[common],
                       help="typical-set compression of a draw record")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)

    p = sub.add_parser("retrieve", parents=[common],
                       help="heralded retrieval of a stored operator")
    p.add_argument("--map", required=True)
    p.add_argument("--op-index", type=int, default=0)
    p.add_argument("--state", default="zero")
    p.add_argument("--trials", type=_count, default=0)

    p = sub.add_parser("schmidt", parents=[common],
                       help="operator Schmidt form of an interaction")
    p.add_argument("--unitary", required=True)
    p.add_argument("--dims", type=_dims, default=None,
                   help="dA,dB factor dimensions (default: square split)")

    p = sub.add_parser("concentrate", parents=[common],
                       help="collective readout on n interaction copies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--mode", choices=("exact-matrix", "combinatorial"),
                   default="combinatorial")
    p.add_argument("--shots", type=_count, default=0)

    p = sub.add_parser("superdense", parents=[common],
                       help="dense coding with a unitary payload")
    p.add_argument("--unitary", required=True)
    p.add_argument("--shots", type=_count, default=0)

    p = sub.add_parser("verify", parents=[common],
                       help="check a claimed draw record against a dilation")
    p.add_argument("--map", required=True)
    p.add_argument("--ancilla-basis", choices=("computational", "fourier"),
                   default="computational")
    p.add_argument("--steps", type=_count, default=100)
    p.add_argument("--flip", type=int, default=None,
                   help="corrupt the claimed record at this step")

    return parser


def _print_human(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                print(f"{pad}{key}:")
                _print_human(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                _print_human(item, indent)
            else:
                print(f"{pad}- {item}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        body, checks = _COMMANDS[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
        return 2
    # the report's config is the parsed options, with what the command
    # worked out itself (a dimension, a basis kind) added or replaced
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "json", "tol")}
    config.update(body.pop("config", {}))
    report = {"command": args.command, "config": config, **body,
              "checks": {name: bool(ok) for name, ok in checks.items()}}
    if args.json:
        from .formats import json_report

        sys.stdout.write(json_report(report))
    else:
        _print_human(report)
    print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
