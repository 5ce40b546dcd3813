"""Time one fresh process's set-up: ``import bohrlab`` plus building the inputs.

Usage: ``python3 bench/setup_probe.py <workload> <seed> <work dir>``; prints
the seconds on its last line.  ``run.py`` starts several of these and reports
the median as ``setup_s``.
"""

import environment  # first: pins BLAS threads before numpy loads

import shutil
import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = time.perf_counter()
    environment.import_bohrlab()
    import workloads

    workloads.build(workload, seed, work_dir)
    elapsed = time.perf_counter() - start
    shutil.rmtree(work_dir, ignore_errors=True)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
