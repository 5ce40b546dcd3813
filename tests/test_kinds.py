"""The table of kinds: one row per tag, one validator, and facts read from it."""

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from bohrlab import harness
from bohrlab.cli import STATUS_EXIT, EXIT_OK, EXIT_USAGE, _kind_from_args, build_parser, main
from bohrlab.functionals import KINDS, FunctionalKind, FunctionalTag
from bohrlab.harness import campaign_function, evaluate_kind, random_campaign
from bohrlab.radii import RadiusEquation
from bohrlab.series import (
    CoefficientSeries,
    LacunarySeries,
    RadiusError,
    schur_from_parameters,
    series_to_json,
)

# One kind per tag, every parameter away from its default.
SAMPLES = {
    FunctionalTag.A_PM: FunctionalKind.lacunary(3, 2),
    FunctionalTag.D_NM: FunctionalKind.gap(4, 1),
    FunctionalTag.G_MPN: FunctionalKind.rogosinski(2, 1.5, 3),
    FunctionalTag.H_PN: FunctionalKind.rogosinski_center(0.75, 2),
    FunctionalTag.I_M: FunctionalKind.improved((0.5, 0.125)),
    FunctionalTag.LEMMA_TAIL: FunctionalKind.tail_lemma(3),
}


def _kind_choices(parser):
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    (kind,) = [a for a in subparsers.choices["sharpness"]._actions if a.dest == "kind"]
    return kind.choices


def _flags(kind):
    argv = ["--kind", kind.tag.value]
    for name in kind.spec.params:
        value = getattr(kind, name)
        text = ",".join(map(repr, value)) if name == "d" else repr(value)
        argv += [f"--{name.replace('_', '-')}", text]
    return argv


def test_one_row_per_tag():
    assert list(KINDS) == list(FunctionalTag)
    assert set(SAMPLES) == set(FunctionalTag)
    assert _kind_choices(build_parser()) == [tag.value for tag in KINDS]


@pytest.mark.parametrize("tag", list(FunctionalTag))
def test_cli_flags_round_trip(tag):
    kind = SAMPLES[tag]
    args = build_parser().parse_args(["sharpness", *_flags(kind)])
    again = _kind_from_args(args)
    assert again == kind
    assert again.label() == kind.label()
    assert set(kind.params()) == set(kind.spec.params)


_VALUES = (-1, 0, 1, 64, 65, 2.5)

# Each radius kind beside its equation, both taking the parameters by name.
_EQUATIONS = [
    (("p", "m"), FunctionalKind.lacunary, RadiusEquation.refined_lacunary),
    (("n", "m"), FunctionalKind.gap, RadiusEquation.gap),
    (("m", "p_exp", "n"), FunctionalKind.rogosinski,
     lambda m, p_exp, n: RadiusEquation.rogosinski(n, p_exp, m)),
    (("p_exp", "n"), FunctionalKind.rogosinski_center,
     lambda p_exp, n: RadiusEquation.rogosinski_limit(n, p_exp)),
]


def _outcome(build, values):
    try:
        build(*values)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("names,kind,equation", _EQUATIONS)
def test_kind_rejects_what_its_equation_rejects(names, kind, equation):
    rejected = 0
    for values in itertools.product(_VALUES, repeat=len(names)):
        expected = _outcome(equation, values)
        assert _outcome(kind, values) == expected, dict(zip(names, values))
        rejected += expected is not None
    assert 0 < rejected < len(_VALUES) ** len(names)


@pytest.mark.parametrize("build,message", [
    (lambda: FunctionalKind.gap(100, 0), "parameter n exceeds the cap 64"),
    (lambda: FunctionalKind.gap(2.5, 1), "parameter n must be an integer"),
    (lambda: FunctionalKind.lacunary(65, 1), "parameter p exceeds the cap 64"),
    (lambda: FunctionalKind.tail_lemma(0), "parameter n must satisfy n >= 1, got 0"),
    (lambda: FunctionalKind(FunctionalTag.I_M), "the weight sequence d is required"),
    (lambda: FunctionalKind.improved((5.0,)), "weight constraint violated by excess 4.625"),
])
def test_bad_parameters_fail_at_construction(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# A value for each parameter field, of the type the kinds that take it expect.
_FOREIGN = {"p": 2, "m": 1, "n": 3, "p_exp": 1.0, "d": (0.5,)}


@pytest.mark.parametrize("tag", list(FunctionalTag))
def test_kind_refuses_parameters_it_does_not_take(tag, capsys):
    kind = SAMPLES[tag]
    own = {name: getattr(kind, name) for name in kind.spec.params}
    foreign = [name for name in _FOREIGN if name not in kind.spec.params]
    assert foreign
    for name in foreign:
        with pytest.raises(ValueError) as info:
            FunctionalKind(tag, **own, **{name: _FOREIGN[name]})
        assert str(info.value) == f"kind {tag.value} takes no {name}"
        flag = f"--{name.replace('_', '-')}"
        value = _FOREIGN[name]
        text = ",".join(map(repr, value)) if name == "d" else repr(value)
        assert main(["sharpness", *_flags(kind), flag, text]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"usage error: kind {tag.value} takes no {flag}\n")


# The margin may only grow with the bound on the dropped coefficients.
_MONOTONE_KINDS = [
    FunctionalKind.lacunary(2, 1),
    FunctionalKind.gap(1, 0),
    FunctionalKind.gap(3, 1),
    FunctionalKind.rogosinski(2, 1.0, 2),
    FunctionalKind.rogosinski_center(2.0, 3),
    FunctionalKind.improved((8.0 / 9.0,)),
    FunctionalKind.tail_lemma(2),
]


def _with_bound(f, length, bound):
    if isinstance(f, LacunarySeries):
        return LacunarySeries(f.m, f.p, _with_bound(f.g, length, bound))
    return CoefficientSeries(f.coeffs[:length], bound, f.certificate)


@pytest.mark.parametrize("kind", _MONOTONE_KINDS, ids=FunctionalKind.label)
def test_margin_never_decreases_with_the_bound(kind):
    rng = np.random.default_rng(47)
    pairs = 0
    for trial in range(60):
        r = float(rng.uniform(0.05, 0.9))
        f = campaign_function(kind, seed=47, trial=trial, r=0.5)
        order = f.g.truncation_order if isinstance(f, LacunarySeries) else f.truncation_order
        length = int(rng.integers(1, order + 2))
        bounds = np.sort(rng.random(10))
        margins = [evaluate_kind(kind, _with_bound(f, length, float(b)), r).margin
                   for b in bounds]
        pairs += len(margins) - 1
        assert all(a <= b for a, b in zip(margins, margins[1:])), (trial, r, length)
    assert pairs == 540


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", list(FunctionalTag), ids=lambda t: t.value)
def test_campaigns_take_exactly_the_evaluator_radii(tag, monkeypatch):
    kind = SAMPLES[tag]
    f = campaign_function(kind, 3, 0, 0.5)
    for r in (-0.1, 0.0, 0.5, 0.995, 1.0, 1.5, math.nan, math.inf):
        try:
            evaluate_kind(kind, f, r)
        except RadiusError:
            with monkeypatch.context() as patch:  # the radius is refused before sampling
                patch.setattr(harness, "_sample_parameters", None)
                with pytest.raises(RadiusError):
                    random_campaign(kind, 20, 0, r=r)
                with pytest.raises(RadiusError):
                    campaign_function(kind, 3, 0, r)
        else:
            summary = random_campaign(kind, 20, 0, r=r)
            assert math.isfinite(summary.max_margin)


@pytest.mark.parametrize("tag", list(FunctionalTag), ids=lambda t: t.value)
def test_sweep_rows_are_verify_at_the_same_radius(tag, tmp_path, capsys):
    # One radius rule: a single-point sweep row is REJECTED exactly where
    # evaluate_kind refuses the radius, and is otherwise verify at that r.
    kind = SAMPLES[tag]
    f = campaign_function(kind, 3, 0, 0.5)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(series_to_json(f)))
    refused = []
    for r in (-0.1, 0.0, 0.5, 0.995, math.nan, math.inf):
        assert main(["sweep", "--file", str(path), *_flags(kind),
                     f"--grid={r!r}:{r!r}:1"]) == EXIT_OK
        (row,) = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        status = main(["verify", "--file", str(path), *_flags(kind), f"--r={r!r}"])
        out = capsys.readouterr().out
        try:
            report = evaluate_kind(kind, f, r)
        except RadiusError:
            refused.append(r)
            assert (row[3], status, out) == ("REJECTED", EXIT_USAGE, "")
            continue
        verdict = json.loads(out)
        assert row[3] == "OK" and status == STATUS_EXIT[report.status]
        assert (float(row[1]), float(row[2])) == (verdict["value"], verdict["margin"])
        assert (verdict["value"], verdict["margin"]) == (report.value, report.margin)
        assert status == EXIT_OK or r != 0.0  # every kind holds at r = 0
    assert refused[:2] == [-0.1, 0.995] and len(refused) == 4


def _random_trial(kind, rng, max_order):
    # A random function shaped as a campaign trial of the kind: g with the
    # support's zero Schur parameters, as lam^m g(lam^p) for a lacunary kind
    # and as lam^m g for every other.
    m, n = kind.spec.support(kind)
    gamma = list(0.98 * np.sqrt(rng.random(6)) * np.exp(2j * np.pi * rng.random(6)))
    gamma[1:1] = [0j] * (n - m - 1)
    g = schur_from_parameters(gamma, int(rng.integers(0, max_order)))
    if kind.spec.lacunary:
        return LacunarySeries(kind.m, kind.p, g)
    return LacunarySeries(m, 1, g).expand()


@pytest.mark.parametrize("tag", list(FunctionalTag), ids=lambda t: t.value)
def test_scalar_report_is_the_batch_formula_on_one_column(tag):
    # One formula per kind: the scalar evaluator and the campaigns share it,
    # so a report equals the batch helper run on the series' own arrays.
    kind = SAMPLES[tag]
    spec = kind.spec
    rng = np.random.default_rng(71)
    for _ in range(40):
        f = _random_trial(kind, rng, 400)
        r = float(rng.uniform(0.05, 0.95))
        report = evaluate_kind(kind, f, r)
        one = f.g if spec.lacunary else f
        value, tail = spec.batch(kind, one.coeffs_array, one.moduli_array, one.coefficient_bound, r)
        level = spec.level(kind, one.moduli_array, r)
        assert (report.value, report.tail_error, report.level) == (value, tail, level)
        assert report.margin == value + tail - level


@pytest.mark.parametrize("tag", list(FunctionalTag), ids=lambda t: t.value)
def test_report_params_follow_the_kind(tag):
    # A report lists its kind's parameters in the kind's own order, the order
    # of label() and of the CLI's CSV params cell.
    kind = SAMPLES[tag]
    f = _random_trial(kind, np.random.default_rng(73), 50)
    report = evaluate_kind(kind, f, 0.3)
    assert list(report.params.items()) == list(kind.params().items())


@pytest.mark.parametrize("tag", [t for t in FunctionalTag if t is not FunctionalTag.D_NM],
                         ids=lambda t: t.value)
def test_only_the_gap_row_takes_a_squared_shift(tag):
    kind = SAMPLES[tag]
    f = _random_trial(kind, np.random.default_rng(74), 50)
    with pytest.raises(TypeError, match="squared_shift"):
        evaluate_kind(kind, f, 0.3, squared_shift=1)
    reports = harness.evaluate_grid(kind, f, [0.2, 0.3], squared_shift=1)
    with pytest.raises(TypeError, match="squared_shift"):
        next(reports)
