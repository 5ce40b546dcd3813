"""Relations between evaluations that no recorded output can make pass (ROADMAP item 3).

Every kind sums coefficient moduli, so its margin does not change when f is
rotated (f(e^{i theta} lam)), multiplied by a unimodular constant, or given
conjugated coefficients; and its value, a supremum over |lam| = r by the
maximum principle, never falls as r grows.  Each relation runs on 20
campaign rows per kind.

G_MPN's center |f(r^m)|^p is taken at the real point r^m only, not over the
circle (ROADMAP item 2), so rotation moves its margin and the value of
G_MPN(2, 2.0, 3) falls.  Those cases are strict xfails: they pass, and the
mark has to go, once item 2 lands.
"""

import numpy as np
import pytest

from bohrlab.functionals import KINDS, FunctionalKind, FunctionalTag
from bohrlab.harness import campaign_function, evaluate_grid, evaluate_kind
from bohrlab.series import CoefficientSeries, LacunarySeries

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
