"""Per-layer metrics read from a :class:`tracer.Tracer` after one pass.

Names are ``<module>.<function>.<stat>``: ``calls``, ``s`` (inclusive
seconds) and ``self_s`` (seconds outside child spans).  ``cli.main`` spans
are split by subcommand.  The table in ``README.md`` says which end-to-end
metric each of these should move, and on which workload.
"""

from __future__ import annotations

EVALUATORS = (
    "eval_lacunary_sum",
    "eval_gap_sum",
    "eval_rogosinski",
    "eval_rogosinski_center",
    "eval_improved_bohr",
    "lemma_tail_bound_check",
)
SUBCOMMANDS = ("verify", "sweep", "sharpness")

_SPANS = (
    ("harness._batch_schur", ("calls", "s", "self_s")),
    ("harness._batch_margins", ("s", "self_s")),
    ("harness.random_campaign", ("s", "self_s")),
    ("radii.maximal_root", ("calls", "s", "self_s")),
    ("radii.unique_root", ("calls", "s", "self_s")),
    ("radii.equation_value", ("calls",)),
    ("radii.equation_derivative", ("calls",)),
    ("series.schur_from_parameters", ("calls", "s")),
    ("series.series_from_json", ("calls", "s")),
    *((f"functionals.{name}", ("calls", "s")) for name in EVALUATORS),
    ("harness.evaluate_kind", ("calls", "s")),
    ("harness.empirical_radius", ("calls", "s")),
    ("harness.theorem_radius", ("calls", "s")),
    ("harness.campaign_function", ("calls", "s")),
    ("harness.sharpness_witness", ("calls", "s")),
    ("spaces.slice_series", ("calls", "s")),
    ("spaces.banach_from_json", ("calls", "s")),
    *((f"cli.main.{cmd}", ("calls", "s", "self_s")) for cmd in SUBCOMMANDS),
)

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{span}.{stat}", _UNITS[stat]) for span, stats in _SPANS for stat in stats),
    ("harness._batch_schur.coeffs", "count"),
    ("harness._batch_schur.ns_per_coeff", "ns"),
    ("series.schur_from_parameters.coeffs", "count"),
    ("radii.equation_value.calls_per_root", "count"),
    ("harness.empirical_radius.evals_per_call", "count"),
    ("cli.output_bytes", "bytes"),
    ("bench.traced_wall_s", "s"),
)

#: Reported by the runner: traced pass time minus the untraced pass time.
TRACE_OVERHEAD = ("bench.trace_overhead_s", "s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, result: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass (``result`` from ``run_pass``)."""
    out: dict[str, float] = {}
    for span, stats in _SPANS:
        for stat in stats:
            if stat == "calls":
                out[f"{span}.calls"] = tracer.calls(span)
            elif stat == "s":
                out[f"{span}.s"] = tracer.seconds(span)
            else:
                out[f"{span}.self_s"] = tracer.self_seconds(span)
    coeffs = tracer.counts["harness._batch_schur.coeffs"]
    out["harness._batch_schur.coeffs"] = coeffs
    out["harness._batch_schur.ns_per_coeff"] = _ratio(
        1e9 * tracer.seconds("harness._batch_schur"), coeffs
    )
    out["series.schur_from_parameters.coeffs"] = tracer.counts[
        "series.schur_from_parameters.coeffs"
    ]
    out["radii.equation_value.calls_per_root"] = _ratio(
        tracer.calls("radii.equation_value"), tracer.counts["radii.roots"]
    )
    out["harness.empirical_radius.evals_per_call"] = _ratio(
        tracer.counts["harness.empirical_radius.evals"],
        tracer.calls("harness.empirical_radius"),
    )
    out["cli.output_bytes"] = result["out_bytes"]
    out["bench.traced_wall_s"] = result["wall"]
    return out
