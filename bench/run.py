"""evometry benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload echo-circuit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # One client in one process, and one BLAS thread: the matrices here are
    # at most 256 x 256, where a second OpenBLAS thread made the n = 4 echo
    # circuit ~50% slower and noisier on a shared 2-core machine. Set
    # before numpy is first imported; CLI children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from evobench.main import main

    sys.exit(main())
