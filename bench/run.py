"""bohrlab benchmark: one workload, measured end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Workloads are ``campaign``, ``radii`` and ``verify`` (see ``workloads.py``).
All load comes from this one process, with BLAS pinned to one thread.  The
workload's op list is repeated in whole passes until ``--seconds`` would be
exceeded (at least one pass).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of fresh
processes that import bohrlab and build the inputs), ``wall_s`` (one pass:
the sum over ops of each op's median time over the passes),
``op_p50_ms``/``op_p99_ms`` (percentiles over ops of those medians) and
``peak_rss_mb``.  Every time among them is scaled to the host's reference
speed by a probe kernel timed between the ops (see ``probe.py``); the time
at the host's own speed is printed beside them.  ``--trace 1`` times one
untraced pass, then repeats traced passes and prints the per-layer metrics
(per pass, median over passes).

Every op's output is checked against invariants that need no reference and,
for seeds in ``reference/``, against the seed commit's outputs.  The last
line of standard output is the JSON result; lines above it give the
environment, each metric with its unit and sample count, and ``fail_ratio``.
"""

from __future__ import annotations

import environment  # first: pins BLAS threads before numpy loads

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import BURST, PERIOD_S, WORKLOAD_KERNEL, Probe, normalise

SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


def run_pass(ops, reference, probe=None) -> dict:
    """Run every op once; time each, then digest and check outside the timing.

    With a ``probe``, a probe sample is also taken before the first op and
    after every ``PERIOD_S`` of ops, and ``wall`` includes those samples.
    """
    import workloads

    clock = time.perf_counter
    raws, times, samples = [], [], []
    start = last_sample = clock()
    if probe is not None:
        samples.append((-1, probe.sample()))
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            raw = op.run()
        except Exception as exc:  # a crashing op is a failed op, not an abort
            raw = exc
        t1 = clock()
        times.append(t1 - t0)
        raws.append(raw)
        if probe is not None and t1 - last_sample >= PERIOD_S:
            for _ in range(min(BURST, int((t1 - last_sample) / PERIOD_S))):
                samples.append((i, probe.sample()))
            last_sample = clock()
    wall = clock() - start
    outputs, failed, out_bytes = {}, 0, 0
    for op, raw in zip(ops, raws):
        if isinstance(raw, Exception):
            print(f"op {op.key} raised {type(raw).__name__}: {raw}", file=sys.stderr)
            outputs[op.key], ok = None, False
        else:
            if isinstance(raw, workloads.CliResult):
                out_bytes += len(raw.text.encode())
            outputs[op.key], ok = workloads.check(op, raw, reference)
        if not ok:
            failed += 1
            print(f"op {op.key} failed its check", file=sys.stderr)
    return {"wall": wall, "times": times, "samples": samples, "outputs": outputs,
            "failed": failed, "out_bytes": out_bytes}


def measure_setup(workload: str, seed: int, work_dir: Path) -> list[float]:
    """Set-up time of fresh processes, each at reference speed."""
    script = environment.BENCH_DIR / "setup_probe.py"
    probe = Probe("calls")
    times, samples = [], [(-1, probe.sample()) for _ in range(BURST)]
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(script), workload, str(seed), str(work_dir / f"probe{i}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        samples += [(i, probe.sample()) for _ in range(BURST)]
    return normalise(times, samples, probe.reference_s)


def repeat_passes(seconds: float, one_pass) -> list:
    """Whole passes until the next one would end past ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(args, ops, reference, work_dir) -> tuple[dict, list]:
    setup = measure_setup(args.workload, args.seed, work_dir)
    probe = Probe(WORKLOAD_KERNEL[args.workload])

    def one_pass():
        result = run_pass(ops, reference, probe)
        del result["outputs"]  # keeps memory flat however many passes fit
        result["raw_times"] = result["times"]
        result["times"] = normalise(result["times"], result["samples"], probe.reference_s)
        return result

    passes = repeat_passes(args.seconds, one_pass)
    # Each op's median over the passes of its time at reference speed: the
    # probe takes out the host's slow spells, the median a pass caught by a
    # burst of noise the probe missed.
    op_ms = [1e3 * statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_s = sum(statistics.median(ts) for ts in zip(*(p["raw_times"] for p in passes)))
    probe_s = [s for p in passes for _, s in p["samples"]]
    print(f"probe {probe.kernel}: median {statistics.median(probe_s) * 1e3:.4g} ms over "
          f"{len(probe_s)} samples, reference {probe.reference_s * 1e3:.4g} ms; "
          f"wall at the host's own speed {raw_s:.4g} s")
    samples = f"{len(op_ms)} ops x {len(passes)} passes"
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (sum(op_ms) / 1e3, "s", samples),
        "op_p50_ms": (percentile(op_ms, 50), "ms", samples),
        "op_p99_ms": (percentile(op_ms, 99), "ms", samples),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    return metrics, passes


def traced(args, ops, reference) -> tuple[dict, list]:
    import layers
    from tracer import Tracer

    untraced = run_pass(ops, reference)
    tracer = Tracer()
    snapshots = []

    def one_pass():
        tracer.reset()
        result = run_pass(ops, reference)
        snapshots.append(layers.layer_metrics(tracer, result))
        # Tracing must not change a single output.
        outputs = result.pop("outputs")
        result["failed"] += sum(1 for key, out in outputs.items()
                                if out != untraced["outputs"][key])
        return result

    with tracer:
        passes = repeat_passes(args.seconds, one_pass)
    metrics = {}
    for name, unit in layers.PER_LAYER:
        values = [snap[name] for snap in snapshots]
        metrics[name] = (statistics.median(values), unit, len(values))
    name, unit = layers.TRACE_OVERHEAD
    traced_wall = metrics["bench.traced_wall_s"][0]
    metrics[name] = (traced_wall - untraced["wall"], unit, len(passes))
    return metrics, [untraced] + passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        environment.import_bohrlab()
    except (environment.MissingProgram, ImportError) as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_dir = environment.WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, work_dir / "main")
        reference = workloads.load_reference(args.workload, args.seed)
        workloads.warm_up(args.workload, ops)
        if args.trace:
            metrics, passes = traced(args, ops, reference)
        else:
            metrics, passes = end_to_end(args, ops, reference, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            environment.WORK_DIR.rmdir()
        except OSError:  # another run's files are still in it
            pass

    attempted = len(ops) * len(passes)
    failed = sum(p["failed"] for p in passes)
    print("env: " + json.dumps(environment.describe(), sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} ops per pass, "
          f"{len(passes)} passes, reference {'checked' if reference else 'absent'}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<44s} {value:>14.6g} {unit:<6s} (n={samples})")
    print(f"  {'fail_ratio':<44s} {failed / attempted:>14.6g} {'1':<6s} "
          f"({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
