"""A radius grid is its radii one at a time, byte for byte.

``sweep`` and the scan of ``harness.empirical_radius`` evaluate many radii in
one formula pass per block (``functionals._columns`` on a radius axis).
These tests hold dense grids of every kind in ``KINDS`` to the single-radius
evaluation, check where the crossing scan stops and what it returns, and
bound what the power tables' normal cut moves.  They need no hypothesis; the
property tests over random files and grids are in
``tests/test_radius_grid_properties.py``.
"""

import dataclasses
import math

import numpy as np
import pytest

from bohrlab import functionals
from bohrlab.functionals import _RADIUS_BLOCK, KINDS, FunctionalKind, Status
from bohrlab.harness import (
    NO_CROSSING,
    campaign_function,
    empirical_radius,
    evaluate_grid,
    evaluate_kind,
    proof_extremal,
)
from bohrlab.series import Certificate, CoefficientSeries, LacunarySeries
from bohrlab.spaces import BanachFunction, MappingForm, SpaceSpec, slice_series, unit_vector

#: Every tag, with the support gaps, Schwarz orders and weights that change
#: which branches a formula takes.
#: Exponents past 2 matter: numpy's array power agrees with libm ``pow`` on
#: squares and reciprocals, and differs from it in a few percent of the rest.
GRID_KINDS = (
    FunctionalKind.lacunary(1, 0),
    FunctionalKind.lacunary(3, 2),
    FunctionalKind.lacunary(4, 3),
    FunctionalKind.gap(1, 0),
    FunctionalKind.gap(4, 1),
    FunctionalKind.gap(5, 3),
    FunctionalKind.rogosinski(2, 2.0, 3),
    FunctionalKind.rogosinski(3, 1.5, 5),
    FunctionalKind.rogosinski_center(0.75, 2),
    FunctionalKind.rogosinski_center(1.0, 1),
    FunctionalKind.improved((8.0 / 9.0,)),
    FunctionalKind.improved((0.1, 1.0, 20.0)),
    FunctionalKind.tail_lemma(1),
    FunctionalKind.tail_lemma(5),
)


def test_every_tag_is_under_test():
    assert {kind.tag for kind in GRID_KINDS} == set(KINDS)


@pytest.mark.parametrize("kind", GRID_KINDS, ids=lambda kind: kind.label())
def test_dense_grid_on_a_campaign_row(kind):
    # numpy's array power differs from libm pow in about 5% of bases for
    # each exponent, so a radius-dependent pow taken on the whole grid moves
    # some of these 500 reports.
    f = campaign_function(kind, 1, 0, 0.5)
    radii = [k * 0.994 / 500 for k in range(500)]
    for r, got in zip(radii, evaluate_grid(kind, f, radii)):
        assert repr(got) == repr(evaluate_kind(kind, f, r)), r


# -- the crossing scan ------------------------------------------------------


def _scan_one_at_a_time(kind, f):
    """empirical_radius as it was written before the scan was batched: one radius per call."""
    def crosses(r):
        return evaluate_kind(kind, f, r).status is Status.VIOLATED

    step = 1e-3
    if crosses(step):
        return step
    for k in range(2, round(NO_CROSSING / step) + 1):
        lo, hi = (k - 1) * step, k * step
        if crosses(hi):
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if crosses(mid) else (mid, hi)
            return 0.5 * (lo + hi)
    return NO_CROSSING


@pytest.mark.parametrize("kind,expected", [
    (FunctionalKind.lacunary(2, 1), 0.7313478140830993),
    (FunctionalKind.gap(2, 1), 0.6000000004768371),
], ids=["A_PM(2,1)", "D_NM(2,1)"])
def test_crossing_of_proof_extremal_is_the_per_point_float(kind, expected):
    f = proof_extremal(kind)
    assert empirical_radius(kind, f) == expected == _scan_one_at_a_time(kind, f)


def test_scan_returns_no_crossing_and_the_first_grid_radius():
    kind = FunctionalKind.gap(1, 0)
    never = CoefficientSeries((0.5 + 0j,), 0.0, Certificate.SCHUR_EXACT)
    assert empirical_radius(kind, never) == NO_CROSSING == _scan_one_at_a_time(kind, never)
    # |c_0| near 1 with the widest tail bound: the tail alone crosses at r = 0.001.
    at_once = CoefficientSeries((0.9999 + 0j,), 1.0, Certificate.SCHUR_EXACT)
    assert evaluate_kind(kind, at_once, 1e-3).status is Status.VIOLATED
    assert empirical_radius(kind, at_once) == 1e-3 == _scan_one_at_a_time(kind, at_once)


def test_scan_of_a_falling_value_is_the_first_crossing():
    # G_MPN(2, 2.0, 3) evaluates its center at one point of the circle, so
    # its value need not grow with r: this campaign row's value falls between
    # grid radii, and the scan still returns the per-point scan's first crossing.
    kind = FunctionalKind.rogosinski(2, 2.0, 3)
    f = campaign_function(kind, 0, 0, 0.5)
    scan = [k * 1e-3 for k in range(1, 991)]
    values = [report.value for report in evaluate_grid(kind, f, scan)]
    assert any(b < a for a, b in zip(values, values[1:]))
    crossing = empirical_radius(kind, f)
    assert crossing == _scan_one_at_a_time(kind, f) < NO_CROSSING


def test_scan_stops_at_the_first_violated_block(monkeypatch):
    kind = FunctionalKind.gap(2, 1)
    f = proof_extremal(kind).expand()
    spec = kind.spec
    blocks = []

    def counting(kind, coeffs, mods, bound, r):
        blocks.append(1 if isinstance(r, float) else len(r))
        return spec.batch(kind, coeffs, mods, bound, r)

    monkeypatch.setitem(KINDS, kind.tag, dataclasses.replace(spec, batch=counting))
    assert empirical_radius(kind, f) == 0.6000000004768371
    # The crossing lies in (0.600, 0.601]: the scan runs the blocks up to the
    # one holding 0.601, and the bisection one radius at a time.
    size = _RADIUS_BLOCK // f.moduli_array.size
    scanned = -(-601 // size)
    assert blocks[:scanned] == [size] * scanned
    assert set(blocks[scanned:]) == {1} and len(blocks) - scanned == 20


# -- the normal cut against the exact tables ---------------------------------


def _exact_powers(x, exponents, weights=None):
    """The exact power table on one radius, the reference for the normal cut.

    ``pow`` runs while ``e * log2(x) >= -1100``, below which it returns 0.0.
    """
    if not 0.0 < x < 1.0:
        return x**exponents
    out = np.zeros(exponents.shape)
    k = np.searchsorted(exponents, -1100.0 / math.log2(x), side="right")
    np.power(x, exponents[:k], out=out[:k])
    return out


#: What the normal cut may move a self-map's report by (``functionals._powers``).
_CUT_BOUND = 2.0**-480


def _mobius_mix(rng, T, maps=3):
    """A convex combination of rotated Mobius maps: a disk self-map, T+1 coefficients."""
    coeffs = np.zeros(T + 1, dtype=complex)
    s = np.arange(1, T + 1)
    for weight in rng.dirichlet(np.ones(maps)):
        a = 0.98 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        turn = np.exp(2j * np.pi * rng.random())
        coeffs[0] += weight * a
        coeffs[1:] += weight * (1.0 - abs(a) ** 2) * (-np.conj(a)) ** (s - 1) * turn**s
    return CoefficientSeries(coeffs, 0.0, Certificate.SCHUR_EXACT)


def _monomial(k, modulus=1.0, certificate=Certificate.SCHUR_EXACT):
    coeffs = np.zeros(k + 1, dtype=complex)
    coeffs[k] = modulus
    return CoefficientSeries(coeffs, 0.0, certificate)


#: Kinds whose support every full series meets, with m >= 1 and p < 1 cases.
_FULL_SUPPORT = (
    FunctionalKind.lacunary(1, 0),
    FunctionalKind.gap(1, 0),
    FunctionalKind.rogosinski(2, 2.0, 3),
    FunctionalKind.rogosinski(3, 1e-12, 1),
    FunctionalKind.rogosinski_center(0.75, 2),
    FunctionalKind.improved((8.0 / 9.0,)),
    FunctionalKind.improved((0.1, 1.0, 20.0)),
    FunctionalKind.tail_lemma(5),
)


def _oracle_cases():
    """(kind, f, r) with tables that cross 2**-1022: every tag of KINDS."""
    rng = np.random.default_rng(24)
    cases = []
    # z^k with r^k inside the band (2**-1100, 2**-1022), where the values
    # are made of subnormal terms alone.
    for k in (60, 500, 1000, 1500):
        for log2_rk in (-1023.0, -1050.0, -1099.0):
            r = 2.0 ** (log2_rk / k)
            f = LacunarySeries(0, 1, _monomial(k))
            kinds = _FULL_SUPPORT + (FunctionalKind.gap(4, 1), FunctionalKind.gap(5, 3))
            cases += [(kind, f, r) for kind in kinds]
            lacunary = LacunarySeries(1, 2, _monomial(k // 2))
            cases += [(FunctionalKind.lacunary(2, 1), lacunary, r),
                      (FunctionalKind.gap(3, 1), lacunary, r)]
    cases.append((FunctionalKind.gap(1, 0), LacunarySeries(0, 1, _monomial(1000)), 0.49))
    # T = 1,500 Mobius mixes, lacunary files with p >= 2 and ball maps at moderate r.
    for _ in range(4):
        f = LacunarySeries(0, 1, _mobius_mix(rng, 1500))
        cases += [(kind, f, float(rng.uniform(0.05, 0.6))) for kind in _FULL_SUPPORT]
    for m, p in ((0, 2), (1, 2), (2, 3)):
        f = LacunarySeries(m, p, _mobius_mix(rng, 700))
        for r in rng.uniform(0.05, 0.6, 3):
            cases += [(FunctionalKind.lacunary(p, m), f, float(r)),
                      (FunctionalKind.gap(m + p, m), f, float(r))]
    for q in (1.0, 2.0, 3.0, math.inf):
        space = SpaceSpec(3, q)
        u = unit_vector(rng.normal(size=3) + 1j * rng.normal(size=3), space)
        for form in MappingForm:
            direction = u if form is MappingForm.VECTOR_VALUED else None
            ball = BanachFunction(form, space, u, _mobius_mix(rng, 1500), direction=direction)
            f = LacunarySeries(0, 1, slice_series(ball, ball.u))
            kinds = (FunctionalKind.gap(1, 0), FunctionalKind.rogosinski_center(1.0, 1))
            cases += [(kind, f, float(rng.uniform(0.05, 0.6))) for kind in kinds]
    return cases


def test_normal_cut_moves_reports_within_its_bound(monkeypatch):
    cases = _oracle_cases()
    assert {kind.tag for kind, _, _ in cases} == set(KINDS)
    cut = [evaluate_kind(kind, f, r) for kind, f, r in cases]
    with monkeypatch.context() as exact_tables:
        exact_tables.setattr(functionals, "_powers", _exact_powers)
        exact_tables.setattr(functionals, "_squares", lambda table, x, e, weights: table**2)
        exact = [evaluate_kind(kind, f, r) for kind, f, r in cases]
    moved = 0
    for (kind, _, r), got, want in zip(cases, cut, exact):
        assert got.status is want.status, (kind, r)
        for field in ("value", "tail_error", "margin"):
            assert abs(getattr(got, field) - getattr(want, field)) <= _CUT_BOUND, (kind, r)
        # The cut only drops nonnegative terms.
        assert got.value <= want.value
        moved += got != want
    assert moved  # the band is reached: some report made of subnormal terms moves


def test_normal_cut_keeps_large_moduli_and_the_composed_center(monkeypatch):
    # A modulus above 1 (an UNKNOWN file) moves its own cut down: its tables
    # keep every entry the exact tables hold.  G_MPN's composed center keeps
    # the exact table, since |f(r^m)|^p with p < 1 magnifies a subnormal f.
    cases = []
    for modulus in (1e20, 1e150, 1e300):
        f = LacunarySeries(0, 1, _monomial(1000, modulus, Certificate.UNKNOWN))
        cases += [(kind, f, 0.49) for kind in _FULL_SUPPORT]
    f = LacunarySeries(0, 1, _monomial(1000))
    r = 2.0 ** (-1050.0 / 1000)
    cases += [(FunctionalKind.rogosinski(1, p_exp, 1), f, r) for p_exp in (1e-12, 0.5)]

    def reports():
        # |c|^2 of 1e300 is inf, and inf * 0.0 NaN, on both sides.
        with np.errstate(over="ignore", invalid="ignore"):
            return [repr(evaluate_kind(kind, f, r)) for kind, f, r in cases]

    cut = reports()
    with monkeypatch.context() as exact_tables:
        exact_tables.setattr(functionals, "_powers", _exact_powers)
        exact_tables.setattr(functionals, "_squares", lambda table, x, e, weights: table**2)
        assert cut == reports()
    assert evaluate_kind(*cases[-2]).value == pytest.approx(1.0, abs=1e-9)
