"""Traced stand-in for ``python -m evometry``, used by cli-oneshot.

Usage: python -m evobench.cli_child SPANS_JSON <evometry arguments...>

Times the import of the package, wraps its public functions, then runs
the command line exactly as ``python -m evometry`` would and writes the
spans, work counts and start-up marks to SPANS_JSON when it returns.
"""
import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import evometry
    import evometry.cli
    import_ms = 1e3 * (time.perf_counter() - t0)

    from evobench.tracer import Tracer

    tracer = Tracer()
    tracer.install(evometry)
    main_entered = time.monotonic()
    try:
        code = evometry.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump({
                "import_ms": import_ms,
                "main_entered": main_entered,
                "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
                "work": dict(tracer.work[None]),
            }, fh)
    sys.exit(code)
