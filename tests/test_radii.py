from collections import Counter

import numpy as np
import pytest

from bohrlab import radii
from bohrlab.radii import (
    NoRootError,
    PARAMETER_CAP,
    RESIDUAL_TOL,
    RadiusEquation,
    _isolation_terms,
    _polynomial_terms,
    _terms_value,
    equation_value,
    maximal_root,
    star_equivalence_check,
    unique_root,
)


def _collect(terms):
    """Integer coefficient of each power, zero coefficients dropped."""
    acc = Counter()
    for coef, exp in terms:
        assert coef == int(coef)
        acc[exp] += int(coef)
    return {exp: coef for exp, coef in acc.items() if coef != 0}


def _square(terms):
    return [(c1 * c2, e1 + e2) for c1, e1 in terms for c2, e2 in terms]


def _polynomial_table(p_max, m_max, n_max):
    """The polynomial equations of ``bohrlab radii`` at these caps."""
    pm = [(p, m) for p in range(1, p_max + 1) for m in range(min(p, m_max) + 1)]
    nm = [(n, m) for m in range(m_max + 1) for n in range(m + 1, n_max + 1)]
    return (
        [RadiusEquation.lacunary(p, m) for p, m in pm]
        + [RadiusEquation.refined_lacunary(p, m) for p, m in pm]
        + [RadiusEquation.gap_piecewise(n, m) for n, m in nm]
        + [RadiusEquation.gap(n, m) for n, m in nm]
    )


class TestEquationValue:
    def test_refined_lacunary_collapses_to_square(self):
        # p=1, m=0: 5r^2 - 2r + 1 + 4r^2 - 4r = (3r - 1)^2
        eq = RadiusEquation.refined_lacunary(1, 0)
        for r in (0.1, 1 / 3, 0.5, 0.9):
            assert equation_value(eq, r) == pytest.approx((3 * r - 1) ** 2, abs=1e-14)

    def test_limit_kind_at_one_third(self):
        eq = RadiusEquation.rogosinski_limit(1, 1.0)
        assert equation_value(eq, 1 / 3) == pytest.approx(0.0, abs=1e-15)

    def test_gap_equation_factorization(self):
        # N=2, m=1: 5r^3 + 2r^2 - 3r = r (5r - 3)(r + 1)
        eq = RadiusEquation.gap(2, 1)
        for r in (0.2, 0.6, 0.8):
            assert equation_value(eq, r) == pytest.approx(
                r * (5 * r - 3) * (r + 1), abs=1e-13
            )
        assert equation_value(eq, 0.6) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_out_of_range(self):
        eq = RadiusEquation.lacunary(1, 0)
        for r in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                equation_value(eq, r)

    @pytest.mark.parametrize("r", [np.nan, [0.5, np.nan]])
    def test_rejects_nan(self, r):
        for eq in (RadiusEquation.lacunary(1, 0), RadiusEquation.gap(2, 1),
                   RadiusEquation.rogosinski(1, 1.0, 1), RadiusEquation.rogosinski_limit(1, 1.0)):
            with pytest.raises(ValueError, match="open interval"):
                equation_value(eq, r)


class TestTermsValue:
    def test_float_agrees_with_array_at_the_cap(self):
        # bisection and certificates sum in floats, the grid scan on arrays;
        # the two differ only by pow's last bit and the sums' rounding
        eps = np.finfo(float).eps
        cap = PARAMETER_CAP
        term_lists = {tuple(terms) for eq in _polynomial_table(cap, cap, cap)
                      for terms in (_polynomial_terms(eq), _isolation_terms(eq))}
        for terms in term_lists:
            for r in (1e-3, 0.2, 1 / 3, 0.7, 0.95, 0.9999):
                scalar = _terms_value(terms, r)
                assert isinstance(scalar, float)
                array = _terms_value(terms, np.array([r]))
                scale = sum(abs(c) * r**e for c, e in terms)
                assert abs(scalar - array[0]) <= 8 * eps * scale, (terms, r)


class TestIsolationTerms:
    def test_m0_squares_factor_exactly(self):
        for k in range(1, PARAMETER_CAP + 1):
            for eq in (RadiusEquation.lacunary(k, 0), RadiusEquation.refined_lacunary(k, 0),
                       RadiusEquation.gap(k, 0)):
                square = _square(_isolation_terms(eq))
                assert _collect(square) == _collect(_polynomial_terms(eq))


class TestMaximalRoot:
    def test_perfect_square_roots(self):
        for p in range(1, PARAMETER_CAP + 1):
            for eq in (RadiusEquation.lacunary(p, 0), RadiusEquation.refined_lacunary(p, 0)):
                assert abs(maximal_root(eq) - 3.0 ** (-1.0 / p)) <= 1e-14

    def test_piecewise_gap_goldens(self):
        assert abs(maximal_root(RadiusEquation.gap_piecewise(1, 0)) - 1 / 3) <= 1e-10
        assert abs(maximal_root(RadiusEquation.gap_piecewise(2, 1)) - 3 / 5) <= 1e-10

    def test_refined_interval_claim(self):
        # for 1 <= m <= p the refined root sits strictly above 3^(-1/p)
        for p in range(1, 7):
            for m in range(1, p + 1):
                root = maximal_root(RadiusEquation.refined_lacunary(p, m))
                assert 3.0 ** (-1.0 / p) < root < 1.0

    def test_residual_certificates(self):
        # roots are certified on float sums; equation_value is the numpy path
        for eq in _polynomial_table(16, 16, 32):
            root = maximal_root(eq)
            assert 0.0 < root < 1.0
            assert abs(equation_value(eq, root)) <= RESIDUAL_TOL, eq

    def test_maximality_no_sign_change_above(self):
        for eq in (RadiusEquation.gap(3, 1), RadiusEquation.refined_lacunary(2, 1)):
            root = maximal_root(eq)
            grid = np.arange(root + 1e-4, 1.0, 1e-4)
            vals = equation_value(eq, grid)
            signs = np.sign(vals[vals != 0.0])
            assert np.all(signs == signs[0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RadiusEquation.refined_lacunary(2, 3)  # m > p
        with pytest.raises(ValueError):
            RadiusEquation.gap(2, 2)  # N < m + 1
        with pytest.raises(ValueError):
            RadiusEquation.lacunary(65, 0)  # cap
        with pytest.raises(ValueError):
            RadiusEquation.rogosinski(2, 2.5, 1)  # exponent range


class TestUniqueRoot:
    def test_limit_goldens(self):
        assert abs(unique_root(RadiusEquation.rogosinski_limit(1, 1.0)) - 1 / 3) <= 1e-10
        assert abs(unique_root(RadiusEquation.rogosinski_limit(1, 2.0)) - 1 / 2) <= 1e-10

    @pytest.mark.parametrize("p_exp", [1e-12, 1e-10, 0.5, 1.0, 2.0])
    def test_limit_closed_form(self, p_exp):
        # 2r - p (1 - r) = 0 at p / (2 + p); the first two lie under the
        # 1e-9 bracket and are bisected to a width relative to the root
        root = unique_root(RadiusEquation.rogosinski_limit(1, p_exp))
        exact = p_exp / (2.0 + p_exp)
        assert abs(root - exact) <= (1e-12 * exact if exact < 1e-9 else 1e-14)

    def test_composed_root_below_bracket(self):
        # the left side is about 1e-12 near 0, so the residual says little:
        # check the sign change across the root instead
        eq = RadiusEquation.rogosinski(1, 1e-12, 1)
        root = unique_root(eq)
        assert 0.0 < root < 1e-9
        below, above = root * (1 - 1e-12), root * (1 + 1e-12)
        assert equation_value(eq, below) > 0.0 > equation_value(eq, above)

    def test_root_below_bracket_needs_a_sign_change(self, monkeypatch):
        # a wrong root 10x the true one still has |residual| of about 9e-12,
        # inside RESIDUAL_TOL; the sign change across it is what refuses it
        real = radii._bisect

        def off_by_ten(fn, lo, hi, **kw):
            root = real(fn, lo, hi, **kw)
            return 10.0 * root if kw.get("relative") else root

        monkeypatch.setattr(radii, "_bisect", off_by_ten)
        with pytest.raises(NoRootError, match="no sign change"):
            unique_root(RadiusEquation.rogosinski_limit(1, 1e-12))

    def test_composed_tends_to_limit(self):
        # growing the inner order recovers the limit equation's root
        limit = unique_root(RadiusEquation.rogosinski_limit(2, 1.0))
        composed = unique_root(RadiusEquation.rogosinski(2, 1.0, 64))
        assert abs(composed - limit) <= 1e-8

    def test_roots_grow_with_tail_start(self):
        # starting the tail later (larger N) leaves less mass, so the
        # admissible radius grows; shrinking N forces a smaller radius
        prev = 0.0
        for n in range(1, 8):
            root = unique_root(RadiusEquation.rogosinski_limit(n, 1.0))
            assert root > prev
            prev = root

    def test_composed_root_shrinks_with_smaller_n(self):
        r3 = unique_root(RadiusEquation.rogosinski(3, 1.0, 2))
        r1 = unique_root(RadiusEquation.rogosinski(1, 1.0, 2))
        assert r1 < r3

    def test_residuals(self):
        for n in (1, 2, 5, 17):
            for p_exp in (0.3, 1.0, 2.0):
                for m in (1, 2, 8):
                    eq = RadiusEquation.rogosinski(n, p_exp, m)
                    root = unique_root(eq)
                    assert abs(equation_value(eq, root)) <= 1e-10

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            unique_root(RadiusEquation.gap(2, 1))


class TestStarEquivalence:
    def test_known_pairs_tight(self):
        assert star_equivalence_check(1, 0) <= 1e-12
        assert star_equivalence_check(2, 1) <= 1e-12

    def test_m0_roots_identical(self):
        # both equations isolate on the terms 2r^N + r - 1
        for n in range(1, PARAMETER_CAP + 1):
            assert star_equivalence_check(n, 0) == 0.0

    def test_parameter_sweep(self):
        for m in range(0, 5):
            for n in range(m + 1, 9):
                assert star_equivalence_check(n, m) <= 1e-10
