"""Run the bnbopt benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Prints a report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exits 0 only when every
correctness check passed. See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One BLAS thread: steadier timings than two (see README). It never exceeds
# nproc, and the run record reports it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "bnbopt" / "__init__.py").is_file():
        print(f"perfbench: no bnbopt sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main(sys.argv[1:], Path(__file__).resolve()))
