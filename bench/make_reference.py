"""Record the current program's op outputs as the benchmark's reference.

Usage, from the repository root: ``python3 bench/make_reference.py``.
Writes ``bench/reference/<workload>.json`` with the digests of every op for
each seed in ``SEEDS``.  Run it only on the commit whose outputs later
commits are held to; an op that fails its invariants aborts the recording.
"""

import environment  # first: pins BLAS threads before numpy loads

import json
import shutil
import sys

SEEDS = (0,)


def main() -> int:
    environment.import_bohrlab()
    import workloads

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        table = {}
        for seed in SEEDS:
            work_dir = environment.WORK_DIR / f"reference-{workload}-{seed}"
            try:
                ops = workloads.build(workload, seed, work_dir)
                digests = {}
                for op in ops:
                    out, ok = workloads.check(op, op.run(), None)
                    if not ok:
                        print(f"{workload} seed {seed}: op {op.key} fails its invariants",
                              file=sys.stderr)
                        return 1
                    digests[op.key] = out
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            table[str(seed)] = digests
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(table, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.name}: {sum(len(d) for d in table.values())} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
