"""Tests of the benchmark's tracer, layer metrics and output checks.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
Each workload runs on a slice of its ops, once untraced and once traced.
"""

import environment  # first: pins BLAS threads before numpy loads

import json
import shutil

import pytest

environment.import_bohrlab()

import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bohrlab import cli, harness, radii, selftest, series, spaces  # noqa: E402
from tracer import Tracer  # noqa: E402

SPANNED = ("calls", "s")

# Per-layer metrics each workload must move (the "on" column of README.md).
NONZERO = {
    "campaign": [
        "harness._batch_schur.calls", "harness._batch_schur.s",
        "harness._batch_schur.self_s", "harness._batch_schur.coeffs",
        "harness._batch_schur.ns_per_coeff",
        "harness._batch_margins.s", "harness._batch_margins.self_s",
        "harness.random_campaign.s", "harness.random_campaign.self_s",
    ],
    "radii": [
        *(f"radii.maximal_root.{s}" for s in ("calls", "s", "self_s")),
        *(f"radii.unique_root.{s}" for s in ("calls", "s", "self_s")),
        "radii.equation_value.calls", "radii.equation_derivative.calls",
        "radii.equation_value.calls_per_root",
    ],
    "verify": [
        "series.schur_from_parameters.calls", "series.schur_from_parameters.s",
        "series.schur_from_parameters.coeffs",
        "series.series_from_json.calls", "series.series_from_json.s",
        *(f"functionals.{e}.{s}" for e in layers.EVALUATORS for s in SPANNED),
        "harness.evaluate_kind.calls", "harness.evaluate_kind.s",
        "harness.empirical_radius.calls", "harness.empirical_radius.s",
        "harness.empirical_radius.evals_per_call",
        *(f"harness.{f}.{s}" for f in ("theorem_radius", "campaign_function",
                                       "sharpness_witness") for s in SPANNED),
        *(f"spaces.{f}.{s}" for f in ("slice_series", "banach_from_json") for s in SPANNED),
        *(f"cli.main.{c}.{s}" for c in layers.SUBCOMMANDS for s in ("calls", "s", "self_s")),
        "cli.output_bytes",
        "radii.maximal_root.calls",  # through harness.theorem_radius
    ],
}

# Layers a workload must not touch at all.
_FRONT_END = [
    "series.series_from_json.calls", "spaces.slice_series.calls",
    "harness.evaluate_kind.calls",
    *(f"functionals.{e}.calls" for e in layers.EVALUATORS),
    *(f"cli.main.{c}.calls" for c in layers.SUBCOMMANDS),
]
ZERO = {
    "campaign": ["series.schur_from_parameters.calls", *_FRONT_END],
    "radii": ["harness._batch_schur.calls", "harness._batch_margins.s",
              "series.schur_from_parameters.calls", *_FRONT_END],
    "verify": ["harness._batch_schur.calls", "harness._batch_margins.s"],
}


def _slice(workload, ops):
    """Enough ops to reach every layer the workload exercises, in a few seconds."""
    if workload == "campaign":
        return ops[:2]
    if workload == "radii":
        return ops[::16]
    return [op for op in ops
            if not op.key.startswith("verify:") or int(op.key.rsplit(":", 1)[1]) < 9]


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_pass(request):
    workload = request.param
    work_dir = environment.WORK_DIR / f"test-{workload}"
    try:
        ops = _slice(workload, workloads.build(workload, 0, work_dir))
        reference = workloads.load_reference(workload, 0)
        plain = run.run_pass(ops, reference)
        with Tracer() as tracer:
            traced = run.run_pass(ops, reference)
        metrics = layers.layer_metrics(tracer, traced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return workload, plain, traced, metrics


def test_predicted_layers_move(traced_pass):
    workload, _, _, metrics = traced_pass
    missing = [name for name in NONZERO[workload] if not metrics[name] > 0]
    assert missing == []


def test_predicted_zeros_hold(traced_pass):
    workload, _, _, metrics = traced_pass
    assert {name: metrics[name] for name in ZERO[workload] if metrics[name] != 0} == {}


def test_tracing_changes_no_output(traced_pass):
    _, plain, traced, _ = traced_pass
    assert plain["failed"] == 0 and traced["failed"] == 0
    assert traced["outputs"] == plain["outputs"]


def test_campaign_breakdown_is_batch_schur(traced_pass):
    workload, _, traced, metrics = traced_pass
    if workload == "campaign":
        assert metrics["harness._batch_schur.self_s"] > 0.8 * traced["wall"]
    if workload == "radii":
        root_s = metrics["radii.maximal_root.s"] + metrics["radii.unique_root.s"]
        assert root_s > 0.8 * traced["wall"]


def test_wrappers_cover_every_binding():
    originals = {
        "schur": series.schur_from_parameters,
        "root": radii.maximal_root,
        "slice": spaces.slice_series,
        "lacunary": harness.eval_lacunary_sum,
    }
    with Tracer():
        wrapped = series.schur_from_parameters
        assert wrapped is not originals["schur"]
        assert harness.schur_from_parameters is wrapped
        assert selftest.schur_from_parameters is wrapped
        assert cli.maximal_root is radii.maximal_root is harness.maximal_root
        assert selftest.maximal_root is radii.maximal_root is not originals["root"]
        assert cli.slice_series is spaces.slice_series is selftest.slice_series
        assert harness.eval_lacunary_sum.__wrapped__ is originals["lacunary"]
    assert series.schur_from_parameters is originals["schur"]
    assert harness.schur_from_parameters is originals["schur"]
    assert cli.maximal_root is originals["root"]
    assert selftest.slice_series is originals["slice"]


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer:
        harness.theorem_radius(harness.FunctionalKind.lacunary(2, 1))
    inclusive = tracer.seconds("harness.theorem_radius")
    assert tracer.calls("radii.maximal_root") == 1
    assert tracer.counts["radii.roots"] == 1
    # Its children are maximal_root and the validators RadiusEquation calls.
    self_s = tracer.self_seconds("harness.theorem_radius")
    assert 0.0 <= self_s <= inclusive - tracer.seconds("radii.maximal_root")


def test_metric_names_match_benchmark_json():
    spec = json.loads((environment.ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == [*layers.PER_LAYER, layers.TRACE_OVERHEAD]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_mismatch_is_a_failure():
    ops = workloads.radii_ops(0)[:3]
    reference = workloads.load_reference("radii", 0)
    assert all(workloads.check(op, op.run(), reference)[1] for op in ops)
    moved = {k: {"root": v["root"] + 1e-6} for k, v in reference.items()}
    assert not any(workloads.check(op, op.run(), moved)[1] for op in ops)
    flipped = dict(reference)
    flipped.pop(ops[0].key)
    assert not workloads.check(ops[0], ops[0].run(), flipped)[1]


def test_verdict_invariant_needs_no_reference():
    ok = {"status": cli.EXIT_OK, "certified": True, "margin": -0.1}
    assert workloads._verify_ok(ok)
    assert not workloads._verify_ok({**ok, "margin": 0.1})
    assert workloads._verify_ok({**ok, "margin": 0.1, "status": cli.EXIT_VIOLATION})
    assert not workloads._verify_ok({**ok, "certified": False})


def test_probe_takes_out_host_speed():
    # From op 20 on, ops and probe both run 3x slower.  Away from that
    # boundary every op reads its full-speed time, which equals its raw time
    # because the probe's full-speed time is the reference.
    times = [1.0] * 20 + [3.0] * 20
    samples = [(-1, 0.5)] + [(i, 0.5 if i < 20 else 1.5) for i in range(40)]
    scaled = probe.normalise(times, samples, reference_s=0.5)
    edge = probe.WINDOW
    assert scaled[:20 - edge] + scaled[20 + edge:] == pytest.approx([1.0] * (40 - 2 * edge))
    kernel = probe.Probe(probe.WORKLOAD_KERNEL["radii"])
    assert kernel.kernel == "calls" and kernel.sample() > 0
