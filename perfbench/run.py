"""faircut benchmark: run one workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: random-large, grid-deep, small-batch, certify.  With ``--trace 0``
the result line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics (spans are also written to ``.perfbench_spans/``).

The workload runs in a child process with the numeric libraries pinned to one
thread, so each workload has its own process and its own peak memory.
"""

import os
import subprocess
import sys
from pathlib import Path

CHILD_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
