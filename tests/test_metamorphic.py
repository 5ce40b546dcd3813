"""Relations between evaluations that no recorded output can make pass (ROADMAP item 3).

Every kind sums coefficient moduli, so its margin does not change when f is
rotated (f(e^{i theta} lam)), multiplied by a unimodular constant, or given
conjugated coefficients; and its value, a supremum over |lam| = r by the
maximum principle, never falls as r grows.  Each relation runs on 20
campaign rows per kind.  One function written in two forms (a lacunary file
and its expansion, a ball map and its slice at u) gets the same status and
margin from ``verify`` and ``sweep``.

G_MPN's center |f(r^m)|^p is taken at the real point r^m only, not over the
circle (ROADMAP item 2), so rotation moves its margin and the value of
G_MPN(2, 2.0, 3) falls.  Those cases are strict xfails: they pass, and the
mark has to go, once item 2 lands.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest

from bohrlab.cli import main
from bohrlab.functionals import KINDS, FunctionalKind, FunctionalTag
from bohrlab.harness import campaign_function, evaluate_grid, evaluate_kind
from bohrlab.series import CoefficientSeries, LacunarySeries, schur_from_parameters, series_to_json
from bohrlab.spaces import (
    BanachFunction,
    MappingForm,
    SpaceSpec,
    banach_to_json,
    slice_series,
    unit_vector,
)

ROWS = 20
R = 0.3
RADII = np.linspace(0.01, 0.9, 120).tolist()
TOL = 1e-15

_ITEM_2 = pytest.mark.xfail(
    strict=True, reason="G_MPN's center is evaluated at one point of the circle (ROADMAP item 2)")
_POINT_CENTER = FunctionalKind.rogosinski(1, 1.0, 1)
_FALLING = FunctionalKind.rogosinski(2, 2.0, 3)

KIND_CASES = [
    FunctionalKind.lacunary(2, 1),
    FunctionalKind.gap(3, 1),
    _POINT_CENTER,
    _FALLING,
    FunctionalKind.rogosinski_center(1.0, 2),
    FunctionalKind.improved((0.5, 0.125)),
    FunctionalKind.tail_lemma(3),
]

_ANGLES = [2.0 * np.pi * k / 8 for k in range(1, 8)]


def _rows(kind):
    # Truncated for r = 0.9, the top of the monotonicity grid.
    return [campaign_function(kind, 0, trial, 0.9) for trial in range(ROWS)]


def _transformed(f, op):
    """``f`` with ``op`` applied to the coefficients the kind reads (g of a lacunary f).

    A rotation or unimodular multiple of lam^m g(lam^p) is one of g, so the
    relations act on g alone.
    """
    g = f.g if isinstance(f, LacunarySeries) else f
    h = CoefficientSeries(op(g.coeffs_array), g.coefficient_bound, g.certificate)
    return LacunarySeries(f.m, f.p, h) if isinstance(f, LacunarySeries) else h


def _degrees(f):
    g = f.g if isinstance(f, LacunarySeries) else f
    return np.arange(g.coeffs_array.size)


def _case(kind, failing=()):
    marks = [_ITEM_2] if kind in failing else []
    return pytest.param(kind, marks=marks, id=kind.label())


def test_every_kind_is_covered():
    assert {kind.tag for kind in KIND_CASES} == set(KINDS) == set(FunctionalTag)


@pytest.mark.parametrize("kind", [_case(k, (_POINT_CENTER, _FALLING)) for k in KIND_CASES])
def test_rotation_leaves_the_margin(kind):
    for f in _rows(kind):
        base = evaluate_kind(kind, f, R).margin
        s = _degrees(f)
        for theta in _ANGLES:
            rotated = _transformed(f, lambda c: c * np.exp(1j * theta * s))
            assert abs(evaluate_kind(kind, rotated, R).margin - base) <= TOL


@pytest.mark.parametrize("kind", [_case(k) for k in KIND_CASES])
def test_unimodular_multiple_leaves_the_margin(kind):
    for f in _rows(kind):
        base = evaluate_kind(kind, f, R).margin
        for phi in _ANGLES:
            turned = _transformed(f, lambda c: c * np.exp(1j * phi))
            assert abs(evaluate_kind(kind, turned, R).margin - base) <= TOL


@pytest.mark.parametrize("kind", [_case(k) for k in KIND_CASES])
def test_conjugation_leaves_the_margin(kind):
    for f in _rows(kind):
        base = evaluate_kind(kind, f, R).margin
        assert abs(evaluate_kind(kind, _transformed(f, np.conj), R).margin - base) <= TOL


@pytest.mark.parametrize("kind", [_case(k, (_FALLING,)) for k in KIND_CASES])
def test_value_never_falls_as_r_grows(kind):
    for f in _rows(kind):
        values = np.array([report.value for report in evaluate_grid(kind, f, RADII)])
        assert np.all(np.diff(values) >= 0.0)


# -- equal margins across forms ----------------------------------------------

#: Kinds that read the expanded series of any file; D_NM follows each file's support.
_EXPANDED_KINDS = (
    ["--kind", "H_PN", "--p-exp", "2.0", "--n", "3"],
    ["--kind", "G_MPN", "--m", "1", "--p-exp", "1.0", "--n", "2"],
    ["--kind", "I_M", "--d", "0.4,0.5"],
    ["--kind", "LEMMA_TAIL", "--n", "2"],
)
FORM_RADII = (0.2, 0.5, 0.8)
_GAMMA = (0.6 + 0.1j, -0.3 + 0.4j, 0.5j, 0.2, -0.45 - 0.1j)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


def _verdicts(path, kind):
    """``verify``'s (status, margin) at each radius of FORM_RADII, and ``sweep``'s (margin, status)."""
    verdicts = []
    for r in FORM_RADII:
        status, text = _cli(["verify", "--file", path, *kind, "--r", repr(r)])
        verdicts.append((status, json.loads(text)["margin"]))
    status, text = _cli(["sweep", "--file", path, *kind, "--grid", "0.2:0.8:3"])
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return verdicts, status, [(row[2], row[3]) for row in rows]


def _form_pairs():
    """(id, file document, the same function as a plain file, D_NM flags for its support)."""
    pairs = []
    for m, p in ((1, 2), (0, 3), (2, 1)):
        f = LacunarySeries(m, p, schur_from_parameters(_GAMMA, 240 // p))
        pairs.append((f"lacunary(m={m},p={p})", series_to_json(f), series_to_json(f.expand()),
                      ["--kind", "D_NM", "--n", str(m + p), "--m", str(m)]))
    for form, q in zip(MappingForm, (1.5, 2.0, math.inf)):
        space = SpaceSpec(3, q)
        u = unit_vector([0.8 + 0.1j, -0.3j, 0.4], space)
        direction = u if form is MappingForm.VECTOR_VALUED else None
        ball = BanachFunction(form, space, u, schur_from_parameters(_GAMMA, 240),
                              direction=direction)
        pairs.append((f"ball({form.value},q={q})", banach_to_json(ball),
                      series_to_json(slice_series(ball, ball.u)),
                      ["--kind", "D_NM", "--n", "1", "--m", "0"]))
    return pairs


@pytest.mark.parametrize("name,document,plain,gap", _form_pairs(),
                         ids=[pair[0] for pair in _form_pairs()])
def test_equal_margins_across_forms(tmp_path, name, document, plain, gap):
    # A lacunary file and its expansion, and a ball map and its slice at u,
    # are one function: verify and sweep give them the same status and margin.
    paths = []
    for label, data in (("form", document), ("plain", plain)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    for kind in (gap, *_EXPANDED_KINDS):
        verdicts, status, rows = _verdicts(paths[0], kind)
        assert status == 0 and [cell for _, cell in rows] == ["OK"] * 3, (name, kind)
        assert {code for code, _ in verdicts} <= {0, 1}, (name, kind)
        assert (verdicts, status, rows) == _verdicts(paths[1], kind), (name, kind)
