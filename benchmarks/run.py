"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Pins BLAS to one thread before numpy is imported, runs the specloc sources of
this checkout, and prints one JSON result object as the last line of
standard output.
"""

import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, os.path.join(root, "src"))
    import harness

    return harness.main(sys.argv[1:], start, root)


if __name__ == "__main__":
    sys.exit(main())
