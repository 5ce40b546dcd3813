import dataclasses
import math
import warnings

import numpy as np
import pytest

from bohrlab import functionals
from bohrlab.functionals import (
    ConstraintViolation,
    FunctionalKind,
    FunctionalTag,
    Status,
    SupportError,
    _RadiusAxis,
    _powers,
    _squares,
    _energy,
    c_constant,
    constraint_check,
)
from bohrlab.harness import evaluate_grid, evaluate_kind
from bohrlab.radii import RadiusEquation, maximal_root, unique_root
from bohrlab.series import (
    Certificate,
    CoefficientSeries,
    LacunarySeries,
    RadiusError,
    default_truncation,
    mobius_series,
    schur_from_parameters,
)


#: (certified, margin, status): a verdict holds only for a certified input
#: with margin <= 0; a NaN margin fails closed.
STATUS_TABLE = [
    (True, -0.25, Status.HOLDS),
    (True, 0.0, Status.HOLDS),
    (True, 0.25, Status.VIOLATED),
    (True, math.nan, Status.VIOLATED),
    (False, -0.25, Status.UNCERTIFIED),
    (False, math.nan, Status.UNCERTIFIED),
]


def _random_schur(seed, params=8, order=120, spread=0.95):
    rng = np.random.default_rng(seed)
    mags = spread * np.sqrt(rng.random(params))
    args = 2.0 * np.pi * rng.random(params)
    return schur_from_parameters(mags * np.exp(1j * args), order)


class TestLacunarySum:
    @pytest.mark.parametrize("p,m", [(1, 0), (2, 1), (3, 2), (4, 2)])
    def test_extremal_closed_form(self, p, m):
        T = default_truncation(0.9)
        for a in (0.1, 0.5, 0.9):
            fam = LacunarySeries(m, p, mobius_series(-a, T))
            for r in (0.2, 0.55, 0.85):
                rep = evaluate_kind(FunctionalKind.lacunary(p, m), fam, r)
                rp = r**p
                expected = r**m * (a + (1 - a * a) * rp / (1 - rp))
                assert rep.value == pytest.approx(expected, abs=1e-9)

    def test_degenerate_constant_outer(self):
        one = CoefficientSeries((1.0 + 0j,), 0.0, Certificate.SCHUR_EXACT)
        rep = evaluate_kind(FunctionalKind.lacunary(3, 2), LacunarySeries(2, 3, one), 0.7)
        assert rep.value == pytest.approx(0.49)
        assert rep.tail_error == 0.0
        assert rep.margin <= 0.0

    def test_random_instance_at_theorem_radius(self):
        fam = LacunarySeries(1, 2, _random_schur(42))
        r0 = maximal_root(RadiusEquation.refined_lacunary(2, 1))
        rep = evaluate_kind(FunctionalKind.lacunary(2, 1), fam, r0)
        assert rep.margin <= 0.0

    def test_hypothesis_range_enforced(self):
        fam = LacunarySeries(3, 2, mobius_series(-0.5, 10))  # m > p
        with pytest.raises(ValueError):
            evaluate_kind(FunctionalKind.lacunary(2, 3), fam, 0.4)

    def test_kind_needs_positive_gap(self):
        with pytest.raises(ValueError, match="p >= 1"):
            FunctionalKind.lacunary(0, 0)

    def test_radius_rejection(self):
        fam = LacunarySeries(0, 1, mobius_series(-0.5, 10))
        with pytest.raises(RadiusError):
            evaluate_kind(FunctionalKind.lacunary(1, 0), fam, 0.995)
        # r = 0 is admitted, as by every evaluator: only |g_0| is left
        rep = evaluate_kind(FunctionalKind.lacunary(1, 0), fam, 0.0)
        assert (rep.value, rep.tail_error, rep.margin) == (0.5, 0.0, -0.5)

    def test_truncation_certificate_is_honest(self):
        # a short truncation's value + tail must cover the long evaluation
        a, p, m, r = 0.85, 2, 1, 0.8
        kind = FunctionalKind.lacunary(p, m)
        short = evaluate_kind(kind, LacunarySeries(m, p, mobius_series(-a, 40)), r)
        long = evaluate_kind(kind, LacunarySeries(m, p, mobius_series(-a, 2000)), r)
        assert long.value <= short.value + short.tail_error
        assert short.value <= long.value + 1e-15


class TestGapSum:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_extremal_closed_form(self, m):
        T = default_truncation(0.9)
        for a in (0.2, 0.6):
            series = LacunarySeries(m, 1, mobius_series(-a, T)).expand()
            for r in (0.3, 0.7):
                rep = evaluate_kind(FunctionalKind.gap(m + 1, m), series, r)
                expected = r**m * (a + (1 - a * a) * r / (1 - r))
                assert rep.value == pytest.approx(expected, abs=1e-9)

    def test_only_base_term(self):
        s = CoefficientSeries((0j, 1.0 + 0j), 0.0, Certificate.SCHUR_EXACT)
        rep = evaluate_kind(FunctionalKind.gap(2, 1), s, 0.4)
        assert rep.value == pytest.approx(0.4)

    def test_corollary_at_one_third(self):
        for a in np.arange(0.1, 0.95, 0.1):
            rep = evaluate_kind(FunctionalKind.gap(1, 0), mobius_series(float(a), 200), 1 / 3)
            assert rep.margin <= 1e-15

    def test_constant_function_sums_exactly(self):
        # a constant disk map contributes only its modulus, with zero tail
        f = schur_from_parameters([0.37 + 0j, 0j, 0j, 0j], 30)
        rep = evaluate_kind(FunctionalKind.gap(1, 0), f, 0.8)
        assert rep.value == 0.37
        assert rep.tail_error == 0.0

    def test_zero_radius_returns_base_term_only(self):
        f = mobius_series(0.5, 60)
        assert evaluate_kind(FunctionalKind.gap(1, 0), f, 0.0).value == 0.5
        shifted = LacunarySeries(2, 1, mobius_series(-0.5, 60)).expand()
        assert evaluate_kind(FunctionalKind.gap(3, 2), shifted, 0.0).value == 0.0

    def test_underflowing_radius_forms_no_bracket(self):
        # r^m underflows to 0: the squared block is empty and its bracket,
        # which divides by r^m and r^(m-1), is never formed
        shifted = LacunarySeries(3, 1, mobius_series(-0.5, 60)).expand()
        assert evaluate_kind(FunctionalKind.gap(4, 3), shifted, 1e-200).value == 0.0
        lac = LacunarySeries(2, 2, mobius_series(-0.5, 60))
        assert evaluate_kind(FunctionalKind.lacunary(2, 2), lac, 1e-200).value == 0.0

    def test_short_series_at_underflowing_radius_is_finite(self):
        # r^m underflows past 1/r^m's range while the dropped squared terms
        # below the block's start would not: no NaN, no warning
        f = CoefficientSeries((0j,), 1.0, Certificate.SCHUR_EXACT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate_kind(FunctionalKind.gap(32, 31), f, 1e-10)
        assert math.isfinite(rep.value) and math.isfinite(rep.margin)
        assert rep.tail_error >= 1e-10  # the dropped c_31 and c_s, s >= 32

    def test_short_series_charges_at_least_its_zero_padding(self):
        # Zeros past N with the same bound are one of the series the short
        # one's certificate covers, so its margin can only be larger.
        rng = np.random.default_rng(29)
        for _ in range(400):
            m = int(rng.integers(0, 40))
            n = m + 1 + int(rng.integers(0, 6))
            length = int(rng.integers(1, n + 1))
            r = float(10.0 ** rng.uniform(-12.0, np.log10(0.95)))
            bound = float(rng.random())
            coeffs = [0j] * length
            if m < length:
                coeffs[m] = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
            padded = coeffs + [0j] * (n + 3 - length)
            kind = FunctionalKind.gap(n, m)
            short = evaluate_kind(kind, CoefficientSeries(coeffs, bound), r).margin
            long = evaluate_kind(kind, CoefficientSeries(padded, bound), r).margin
            assert short >= long, (m, n, length, r, bound)

    def test_parameters_obey_the_kind_cap(self):
        # the kind checks its parameters, so library calls obey the CLI's cap
        f = CoefficientSeries((0.5 + 0j,), 0.0)
        with pytest.raises(ValueError, match="^parameter n exceeds the cap 64$"):
            evaluate_kind(FunctionalKind.gap(100, 0), f, 0.3)

    def test_support_violation(self):
        s = CoefficientSeries((0.1 + 0j, 0.2 + 0j, 0.3 + 0j), 0.0)
        with pytest.raises(SupportError) as info:
            evaluate_kind(FunctionalKind.gap(2, 0), s, 0.5)  # c_1 is outside {0} | {s >= 2}
        # the modulus prints as a Python float, not as numpy's np.float64(...)
        assert str(info.value) == "coefficient c_1 = 0.2 violates the support {0} | {s >= 2}"

    def test_squared_shift_indexing(self):
        # support {1} | {2, 3}: the squared block runs over s >= N, as the
        # linear block does, with no shift
        c1, c2, c3 = 0.3, 0.25, 0.2
        s = CoefficientSeries((0j, c1 + 0j, c2 + 0j, c3 + 0j), 0.0)
        r = 0.5
        base = c1 * r + c2 * r**2 + c3 * r**3
        bracket = 1.0 / (r + c1 * r) + 1.0 / (1 - r)
        plain = evaluate_kind(FunctionalKind.gap(2, 1), s, r)
        assert plain.value == pytest.approx(
            base + bracket * (c2**2 * r**4 + c3**2 * r**6), abs=1e-14
        )


class TestRogosinski:
    def test_monomial_head(self):
        # with w = lam^m the center term is |F(r^m)|^p
        f = mobius_series(0.5, 300)
        m, p_exp, n, r = 2, 1.5, 2, 0.45
        rep = evaluate_kind(FunctionalKind.rogosinski(m, p_exp, n), f, r)
        center = (0.5 + r**m) / (1 + 0.5 * r**m)
        tail_piece = rep.value - center**p_exp
        assert tail_piece > 0.0
        rep_zero = evaluate_kind(FunctionalKind.rogosinski_center(p_exp, n), f, r)
        assert rep.value - tail_piece == pytest.approx(center**p_exp, abs=1e-12)
        assert rep_zero.value - (rep.value - center**p_exp) == pytest.approx(
            0.5**p_exp, abs=1e-12
        )

    def test_center_is_constant_modulus_power(self, monkeypatch):
        # |f(0)| comes from np.abs, as on the batch path, not from Python's abs
        import bohrlab.functionals as functionals

        real = functionals._center_power
        centers = []

        def recording(*args):
            centers.append(real(*args))
            return centers[-1]

        monkeypatch.setattr(functionals, "_center_power", recording)
        for seed in range(40):
            f = _random_schur(seed)
            for p_exp in (0.5, 1.0, 1.7, 2.0):  # the evaluator admits (0, 2]
                evaluate_kind(FunctionalKind.rogosinski_center(p_exp, 2), f, 0.3)
                head, head_err = centers.pop()
                assert head == f.moduli_array[0] ** p_exp
                assert head_err == 0.0

    def test_middle_sum_absent_for_n1(self):
        # N = 1 gives t = 0: value reduces to center + refined sum pieces
        f = mobius_series(0.4, 200)
        r = 0.3
        rep = evaluate_kind(FunctionalKind.rogosinski_center(1.0, 1), f, r)
        gap = evaluate_kind(FunctionalKind.gap(1, 0), f, r)
        assert rep.value == pytest.approx(gap.value, abs=1e-14)

    def test_extremal_identity_against_closed_form(self):
        # the family value is 1 + (1 - a) Psi with Psi in closed form
        m, p_exp, n = 2, 1.0, 3
        root = unique_root(RadiusEquation.rogosinski(n, p_exp, m))
        r = root + 0.02
        t = (n - 1) // 2
        for a in (0.9, 0.999):
            T = default_truncation(r)
            rep = evaluate_kind(FunctionalKind.rogosinski(m, p_exp, n), mobius_series(a, T), r)
            head = ((a + r**m) / (1 + a * r**m)) ** p_exp
            psi = (head - 1.0) / (1.0 - a)
            psi += (1 + a) * r**n * a ** (n - 1) / (1 - a * r)
            if t >= 1:
                psi += (
                    (1 - a * a)
                    * (1 + a)
                    * sum(a ** (2 * s - 2) for s in range(1, t + 1))
                    * r**n
                    / (1 - r)
                )
            psi += (
                (1.0 / (1 + a) + r / (1 - r))
                * (1 - a * a)
                * (1 + a)
                * a ** (2 * t)
                * r ** (2 * t + 2)
                / (1 - a * a * r * r)
            )
            assert rep.value == pytest.approx(1.0 + (1.0 - a) * psi, abs=1e-9)

    def test_corollary_radii(self):
        for a in np.arange(0.05, 0.99, 0.05):
            f = mobius_series(float(a), 200)
            assert evaluate_kind(FunctionalKind.rogosinski_center(1.0, 1), f, 1 / 3).margin <= 1e-15
            assert evaluate_kind(FunctionalKind.rogosinski_center(2.0, 1), f, 1 / 2).margin <= 1e-15

    def test_constant_center(self):
        f = CoefficientSeries((0.6 + 0j,), 0.0, Certificate.SCHUR_EXACT)
        for p_exp in (0.5, 1.0, 2.0):
            rep = evaluate_kind(FunctionalKind.rogosinski_center(p_exp, 1), f, 0.4)
            assert rep.value == pytest.approx(0.6**p_exp, abs=1e-15)

def _s_star(f, r):
    """The weighted coefficient energy S* of ``f`` at ``r``, its tail added."""
    head, tail = _energy(f.moduli_array, f.coefficient_bound, r)
    return float(head + tail)


class TestSStar:
    def test_pure_rotation(self):
        f = CoefficientSeries((0j, 1.0 + 0j), 0.0, Certificate.SCHUR_EXACT)
        for r in (0.2, 0.6):
            assert _s_star(f, r) == pytest.approx(r * r, abs=1e-15)

    def test_mobius_closed_form(self):
        for a in (0.3, 0.6, 0.9):
            f = mobius_series(a, 600)
            for r in (0.25, 0.5, 0.8):
                closed = (1 - a * a) ** 2 * r * r / (1 - a * a * r * r) ** 2
                assert _s_star(f, r) == pytest.approx(closed, abs=1e-9)

    def test_energy_bound(self):
        # the general coefficient estimate gives (1-a^2)^2 r^2 / (1-r^2)^2
        for seed in range(5):
            f = _random_schur(seed)
            a = abs(f.coeffs[0])
            for r in (0.3, 0.7):
                cap = (1 - a * a) ** 2 * r * r / (1 - r * r) ** 2
                assert _s_star(f, r) <= cap + 1e-12


class TestConstants:
    def test_endpoint_analogue(self):
        # s = 1 collapses to max a(1+a)^2 = 4 at a = 1
        assert c_constant(1) == pytest.approx(4.0, abs=1e-9)

    def test_stationary_bracket(self):
        # the grid argmax brackets a true interior stationary point
        for s in (2, 4):
            val = c_constant(s)
            fn = lambda a: a * (1 + a) ** 2 * (1 - a * a) ** (2 * s - 2)
            grid = np.linspace(0.0, 1.0, 20001)
            best = float(np.max(fn(grid)))
            assert val >= best - 1e-12
            assert val <= best + 1e-6

    def test_closed_form_is_the_maximum(self):
        # a* = 1/(2 sqrt(s) - 1) beats every grid point
        grid = np.linspace(0.0, 1.0, 20001)
        for s in range(1, 65):
            best = float(np.max(grid * (1 + grid) ** 2 * (1 - grid * grid) ** (2 * s - 2)))
            assert c_constant(s) >= best

    def test_strictly_decreasing(self):
        vals = [c_constant(s) for s in range(2, 9)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestConstraint:
    def test_boundary_weight_equality(self):
        res = constraint_check((8.0 / 9.0,))
        assert res.ok
        assert res.lhs == pytest.approx(1.0, abs=1e-12)

    def test_zero_weights(self):
        res = constraint_check((0.0, 0.0, 0.0))
        assert res.ok and res.lhs == 0.0

    def test_unit_weight_violates(self):
        res = constraint_check((1.0,))
        assert not res.ok
        assert res.excess == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            constraint_check((-0.1,))

    def test_violating_weights_cannot_be_built(self):
        # one constraint check, run when the kind is built
        with pytest.raises(ConstraintViolation, match="excess 4.625"):
            FunctionalKind.improved((5.0,))

    @pytest.mark.parametrize("d", [(float("nan"),), (float("inf"),), (0.5, float("nan")),
                                   (-0.1,), (float("-inf"), 0.2)])
    def test_weights_must_be_finite_and_nonnegative(self, d):
        # NaN passes a plain "x < 0" test, so both entry points share one check
        with pytest.raises(ValueError, match="weights d_i must be finite and nonnegative"):
            constraint_check(d)
        with pytest.raises(ValueError, match="weights d_i must be finite and nonnegative"):
            FunctionalKind.improved(d)


class TestImprovedSum:
    def test_corollary_weight_at_one_third(self):
        for a in np.arange(0.0, 0.95, 0.1):
            f = mobius_series(float(a), 200)
            rep = evaluate_kind(FunctionalKind.improved((8.0 / 9.0,)), f, 1 / 3)
            assert rep.margin <= 1e-15

    def test_zero_weights_reduce_to_refined_sum(self):
        f = _random_schur(21)
        r = 0.3
        a = evaluate_kind(FunctionalKind.improved((0.0,)), f, r)
        b = evaluate_kind(FunctionalKind.gap(1, 0), f, r)
        assert a.value == b.value
        assert a.tail_error == b.tail_error

    def test_extremal_identity_against_closed_form(self):
        # family value is 1 - (1 - a) Psi* with Psi* in closed form
        d = (0.5, 0.1)
        assert constraint_check(d).ok
        for a in (0.6, 0.9):
            for r in (0.4, 0.6):
                T = default_truncation(r)
                rep = evaluate_kind(FunctionalKind.improved(d), mobius_series(a, T), r)
                psi = 1.0 - (1 + a) * r / (1 - r)
                for s, weight in enumerate(d, start=1):
                    psi -= (
                        weight
                        * r ** (2 * s)
                        * (1 - a) ** (2 * s - 1)
                        * (1 + a) ** (2 * s)
                        / (1 - a * a * r * r) ** (2 * s)
                    )
                assert rep.value == pytest.approx(1.0 - (1.0 - a) * psi, abs=1e-9)

    def test_violating_weights_rejected(self):
        f = mobius_series(0.5, 50)
        with pytest.raises(ConstraintViolation):
            evaluate_kind(FunctionalKind.improved((1.0,)), f, 0.3)


class TestLemmaTailBound:
    def test_constant_function(self):
        a = 0.7
        f = CoefficientSeries((a + 0j,), 0.0, Certificate.SCHUR_EXACT)
        for n, r in ((1, 0.4), (3, 0.8)):
            slack = -evaluate_kind(FunctionalKind.tail_lemma(n), f, r).margin
            assert slack == pytest.approx((1 - a * a) * r**n / (1 - r), abs=1e-15)

    def test_mobius_instance(self):
        f = mobius_series(0.5, 300)
        assert -evaluate_kind(FunctionalKind.tail_lemma(1), f, 0.4).margin >= 0.0

    def test_random_suite(self):
        for seed in range(40):
            f = _random_schur(seed, order=200)
            for n in (1, 2, 3):
                for r in (0.2, 0.5, 0.8):
                    assert -evaluate_kind(FunctionalKind.tail_lemma(n), f, r).margin >= -1e-10

    def test_zero_radius(self):
        f = mobius_series(0.3, 50)
        assert -evaluate_kind(FunctionalKind.tail_lemma(2), f, 0.0).margin == 0.0


class TestSchwarzPick:
    def test_growth_bound_random_instances(self):
        rng = np.random.default_rng(99)
        for seed in range(100):
            f = _random_schur(seed, order=150)
            a = abs(f.coeffs[0])
            r = float(0.1 + 0.8 * rng.random())
            cap = (a + r) / (1 + a * r)
            lam = r * np.exp(2j * np.pi * np.arange(8) / 8)
            assert np.abs(np.polyval(f.coeffs_array[::-1], lam)).max() <= cap + 1e-9


class TestReportContract:
    def test_margin_definition(self):
        rep = evaluate_kind(FunctionalKind.gap(1, 0), mobius_series(0.5, 80), 0.3)
        assert rep.margin == pytest.approx(rep.value + rep.tail_error - 1.0, abs=1e-18)
        assert rep.certified is True

    def test_uncertified_flagged(self):
        s = CoefficientSeries((0.5 + 0j, 0.2 + 0j), 0.3, Certificate.UNKNOWN)
        rep = evaluate_kind(FunctionalKind.gap(1, 0), s, 0.3)
        assert rep.certified is False

    @pytest.mark.parametrize("certified, margin, status", STATUS_TABLE)
    def test_status_truth_table(self, certified, margin, status):
        rep = evaluate_kind(FunctionalKind.gap(1, 0), mobius_series(0.5, 80), 0.3)
        rep = dataclasses.replace(rep, certified=certified, margin=margin)
        assert rep.status is status

    def test_evaluated_statuses(self):
        f = mobius_series(0.5, 80)
        assert evaluate_kind(FunctionalKind.gap(1, 0), f, 0.3).status is Status.HOLDS
        assert evaluate_kind(FunctionalKind.gap(1, 0), f, 0.8).status is Status.VIOLATED
        s = CoefficientSeries((0.5 + 0j, 0.2 + 0j), 0.3, Certificate.UNKNOWN)
        assert evaluate_kind(FunctionalKind.gap(1, 0), s, 0.8).status is Status.UNCERTIFIED

    @pytest.mark.parametrize("kind", [FunctionalKind.gap(1, 0), FunctionalKind.lacunary(1, 0),
                                      FunctionalKind.improved((0.0,))], ids=lambda k: k.tag.value)
    def test_nan_squared_sum_fails_closed(self, kind):
        # |c_1000| = 1e300 squares to inf, and inf times a power cut to 0.0 is
        # NaN: the squared sum is NaN, not empty, and the verdict is VIOLATED.
        # (I_M's zero weight keeps the NaN energy out of its value.)
        coeffs = np.zeros(1001, dtype=complex)
        coeffs[0], coeffs[1000] = 0.5, 1e300
        f = CoefficientSeries(coeffs, 0.0, Certificate.SCHUR_SAMPLED)
        g = LacunarySeries(0, 1, f) if kind.spec.lacunary else f
        with np.errstate(over="ignore", invalid="ignore"):
            reports = [evaluate_kind(kind, g, 0.49), *evaluate_grid(kind, g, [0.3, 0.49])]
        for rep in reports:
            assert math.isnan(rep.margin)
            assert rep.status is Status.VIOLATED

    def test_json_threshold_for_lemma_tail_only(self):
        f = mobius_series(0.4, 150)
        kinds = [FunctionalKind.lacunary(1, 0), FunctionalKind.gap(1, 0),
                 FunctionalKind.rogosinski(1, 1.0, 1), FunctionalKind.rogosinski_center(1.0, 2),
                 FunctionalKind.improved((0.5,)), FunctionalKind.tail_lemma(2)]
        assert {kind.tag for kind in kinds} == set(FunctionalTag)
        for kind in kinds:
            g = LacunarySeries(0, 1, f) if kind.spec.lacunary else f
            rep = evaluate_kind(kind, g, 0.3)
            data = rep.to_json()
            assert set(data) == {"value", "tail_error", "margin", "inputs"}
            assert (data["value"], data["tail_error"], data["margin"]) == (
                rep.value, rep.tail_error, rep.margin)
            lemma = kind.tag is FunctionalTag.LEMMA_TAIL
            assert set(data["inputs"]) == {"kind", "params", "r", "function", "certified"} | (
                {"threshold"} if lemma else set())
            assert data["inputs"]["kind"] == kind.tag.value
            if lemma:
                assert data["inputs"]["threshold"] == rep.level


class TestPowers:
    """The one power-table helper equals ``x ** e`` bit for bit down to 2**-1022.

    A table contracted against ``weights`` keeps every entry whose product
    with W = max(1, max(weights)) is at least the smallest normal double, and
    is 0.0 elsewhere; without weights it is the exact table.
    """

    @staticmethod
    def _bases(rng, count):
        u = rng.random(count)
        return np.concatenate([
            u,                                   # uniform in (0, 1)
            u**8,                                # bunched near 0
            1.0 - 1e-6 * u,                      # near 1: no underflow at all
            2.0 ** -rng.uniform(0.5, 3.0, count),  # tables reaching subnormals
            [0.0],                               # 0 ** 0 = 1, then zeros
        ])

    @staticmethod
    def _weights(rng, size, case):
        """Moduli of a self-map (W = 1), moduli past 1, or energy weights s |c_s|^2."""
        mods = rng.random(size)
        if case == 1:
            return mods * 10.0 ** rng.uniform(0.0, 6.0)
        if case == 2:
            return np.arange(1, size + 1) * mods**2
        return mods

    @staticmethod
    def _check(got, plain, weight):
        keep = plain * weight >= 2.0**-1022
        assert np.array_equal(got[keep], plain[keep])
        assert not got[~keep].any()

    def test_equals_plain_power(self):
        rng = np.random.default_rng(2024)
        bases = self._bases(rng, 850)
        cases = 0
        for i, x in enumerate(bases):
            x = float(x)
            start = int(rng.integers(0, 4))
            stop = int(rng.integers(start, 2200))
            weights = self._weights(rng, stop + 1 - start, i % 3)
            weight = max(1.0, weights.max())
            for exponents in (
                np.arange(start, stop + 1),
                np.arange(start, stop + 1, dtype=float),
                2.0 * np.arange(start, stop + 1, dtype=float),
            ):
                self._check(_powers(x, exponents, weights), x**exponents, weight)
                cases += 1
        assert cases >= 10_000

    def test_tables_reach_subnormals_and_zeros(self):
        e = np.arange(2200, dtype=float)
        exact = _powers(0.5, e)
        assert exact[1074] == 2.0**-1074 and exact[1075] == 0.0
        assert np.array_equal(exact, 0.5**e)
        # Moduli of a self-map: the table stops at the smallest normal double.
        got = _powers(0.5, e, np.ones(e.size))
        assert got[1022] == 2.0**-1022 and got[1023] == 0.0
        assert np.array_equal(got[:1023], exact[:1023]) and not got[1023:].any()
        # A weight of 4 moves the cut two entries down; a huge one keeps all.
        assert np.flatnonzero(_powers(0.5, e, np.full(e.size, 4.0)))[-1] == 1024
        assert np.array_equal(_powers(0.5, e, np.full(e.size, 1e300)), exact)
        for weights in (None, np.ones(e.size)):
            assert np.array_equal(_powers(0.0, e, weights), 0.0**e)
            assert _powers(0.0, e, weights)[0] == 1.0

    def test_cut_is_set_by_the_entries_values(self, monkeypatch):
        # The cut is estimated in the log domain with a relative slack and
        # trimmed by value.  A slack of 1e-4 puts one entry past the cut into
        # about a tenth of these tables; the trim must give the same tables,
        # on one radius and on a radius axis.
        rng = np.random.default_rng(11)
        bases = 2.0 ** -rng.uniform(0.5, 3.0, 400)
        e = np.arange(2200, dtype=float)
        weights = self._weights(rng, e.size, 1)
        want = [_powers(float(x), e, weights) for x in bases]
        monkeypatch.setattr(functionals, "_CUT_SLACK", 1e-4)
        assert all(np.array_equal(_powers(float(x), e, weights), w) for x, w in zip(bases, want))
        assert np.array_equal(_powers(bases.view(_RadiusAxis), e, weights), np.array(want))

    def test_squared_table_follows_the_same_rule(self):
        rng = np.random.default_rng(7)
        for i, x in enumerate(self._bases(rng, 200)):
            x = float(x)
            e = np.arange(int(rng.integers(1, 2200)))
            table = _powers(x, e, np.ones(e.size))
            weights = self._weights(rng, e.size - 1, i % 3)
            got = _squares(table[1:], x, e[1:], weights)
            self._check(got, table[1:] ** 2, max(1.0, weights.max()))
