import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bohrlab import series as series_module
from bohrlab.functionals import _energy
from bohrlab.series import (
    Certificate,
    CoefficientSeries,
    LacunarySeries,
    RadiusError,
    TailWeight,
    default_truncation,
    mobius_series,
    schur_from_parameters,
    series_from_json,
    series_to_json,
    weighted_tail,
)


def _bits(values):
    """IEEE bit patterns of complex values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.complex128).view(np.uint64).tolist()


def _boundary_max(series, r, samples=256):
    """Max of the partial sum's modulus at ``samples`` equispaced points of |lam| = r."""
    lam = r * np.exp(2j * np.pi * np.arange(samples) / samples)
    return float(np.abs(np.polyval(series.coeffs_array[::-1], lam)).max())


def _linear_tail(series, r):
    return weighted_tail(series.coefficient_bound, r, series.truncation_order,
                         TailWeight.LINEAR)


class TestMobius:
    def test_identity_map(self):
        s = mobius_series(0.0, 5)
        assert s.coeffs == (0j, 1 + 0j, 0j, 0j, 0j, 0j)
        assert s.coefficient_bound == 0.0

    def test_second_coefficient_modulus(self):
        # |c_s| = (1 - a^2) a^(s-1) with a = 0.5, s = 2
        s = mobius_series(0.5, 10)
        assert abs(s.coeffs[2]) == pytest.approx(0.375, abs=1e-15)

    def test_boundary_sampling(self):
        # partial sums stay below 1 plus the tail certificate on |lam| = 0.99
        s = mobius_series(0.7, 200)
        assert _boundary_max(s, 0.99) <= 1.0 + _linear_tail(s, 0.99) + 1e-12

    def test_rejects_bad_parameter(self):
        # -1 < a < 1: the unimodular endpoints and NaN are refused, a < 0 is not
        for a in (1.0, -1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="must lie in"):
                mobius_series(a, 5)
        assert mobius_series(-0.1, 5).coeffs[0] == -0.1 + 0j


class TestMobiusMinus:
    def test_identity_at_zero(self):
        s = mobius_series(-0.0, 4)
        assert s.coeffs[0] == 0j and s.coeffs[1] == 1 + 0j
        assert all(c == 0j for c in s.coeffs[2:])

    def test_first_coefficient(self):
        s = mobius_series(-0.5, 4)
        assert abs(s.coeffs[1]) == pytest.approx(0.75, abs=1e-15)

    def test_sign_pattern(self):
        s = mobius_series(-0.3, 8)
        assert s.coeffs[0].real < 0.0
        assert all(c.real > 0.0 for c in s.coeffs[1:])

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("T", [1, 4, 7])
    def test_closed_form(self, a, T):
        # (lam - a) / (1 - a lam): c_0 = -a, c_s = (1 - a^2) a^(s-1), bound (1 - a^2) a^T
        s = mobius_series(-a, T)
        want = [-a] + [(1.0 - a * a) * a ** (k - 1) for k in range(1, T + 1)]
        assert s.coeffs == tuple(complex(c) for c in want)
        assert s.coefficient_bound == (1.0 - a * a) * a**T

    def test_odd_order_bound_is_nonnegative(self):
        # a^T < 0 for a < 0 and odd T: the bound takes |a|^T, else the
        # constructor would refuse a negative coefficient bound
        s = mobius_series(-0.5, 5)
        assert s.coefficient_bound == 0.75 * 0.5**5 > 0.0


class TestSchurParameters:
    def test_single_parameter_constant(self):
        s = schur_from_parameters([0.4 + 0.1j], 6)
        assert s.coeffs == (0.4 + 0.1j,)
        assert s.coefficient_bound == 0.0

    def test_two_step_shift(self):
        # one recursion step by hand: (0, a) gives a*lam
        s = schur_from_parameters([0j, 0.4 + 0j], 5)
        assert s.coeffs[0] == 0j
        assert s.coeffs[1] == pytest.approx(0.4)
        assert all(abs(c) < 1e-15 for c in s.coeffs[2:])

    def test_unimodular_terminator_gives_mobius(self):
        got = schur_from_parameters([0.5 + 0j, 1.0 + 0j], 12)
        want = mobius_series(0.5, 12)
        assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) < 1e-14

    def test_rejects_parameter_outside_disk(self):
        with pytest.raises(ValueError):
            schur_from_parameters([1.2 + 0j], 4)

    def test_coefficient_bound_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mags = 0.98 * np.sqrt(rng.random(6))
            args = 2.0 * np.pi * rng.random(6)
            s = schur_from_parameters(mags * np.exp(1j * args), 40)
            cap = 1.0 - abs(s.coeffs[0]) ** 2 + 1e-12
            assert all(abs(c) <= cap for c in s.coeffs[1:])

    def test_empty_parameters_zero_function(self):
        s = schur_from_parameters([], 3)
        assert s.coeffs == (0j,)
        assert s.coefficient_bound == 0.0

    @pytest.mark.parametrize("T", [0, 2, 7, 8, 9, 60])
    @pytest.mark.parametrize("terminator", [None, 1.0 + 0j, -1j])
    def test_banded_division_matches_dense(self, T, terminator):
        rng = np.random.default_rng(5)
        params = [complex(g) for g in 0.98 * np.sqrt(rng.random(8))
                  * np.exp(2j * np.pi * rng.random(8))]
        params[3] = 0j
        gamma = params + ([terminator] if terminator is not None else [])
        got = schur_from_parameters(gamma, T)
        assert got.coeffs == tuple(_dense_schur(params, terminator or 0j, T))


class TestLacunary:
    def test_pure_monomial(self):
        one = CoefficientSeries((1 + 0j,), 0.0, Certificate.SCHUR_EXACT)
        s = LacunarySeries(2, 3, one).expand()
        assert s.coeffs[2] == 1 + 0j
        assert sum(1 for c in s.coeffs if c != 0j) == 1

    def test_gap_family_support_and_values(self):
        # m=1, p=2: c_1 = -a, c_{2s+1} = (1-a^2) a^(s-1)
        a = 0.4
        s = LacunarySeries(1, 2, mobius_series(-a, 6)).expand()
        assert s.coeffs[1] == pytest.approx(-a)
        for k in range(1, 7):
            assert abs(s.coeffs[2 * k + 1]) == pytest.approx((1 - a * a) * a ** (k - 1))

    def test_off_support_zero(self):
        s = LacunarySeries(1, 3, mobius_series(-0.5, 5)).expand()
        for idx, c in enumerate(s.coeffs):
            if idx % 3 != 1:
                assert c == 0j

    def test_roundtrip_identity(self):
        g = mobius_series(-0.6, 7)
        expanded = LacunarySeries(2, 3, g).expand()
        read = tuple(expanded.coeffs[3 * s + 2] for s in range(8))
        assert read == g.coeffs

    def test_identity_shape_returns_g(self):
        g = mobius_series(-0.3, 20)
        assert LacunarySeries(0, 1, g).expand() is g

    @pytest.mark.parametrize("m, p, message", [(-1, 1, "base order m must be >= 0"),
                                               (0, 0, "gap p must be >= 1")])
    def test_shape_checked_once(self, m, p, message):
        g = mobius_series(-0.3, 20)
        with pytest.raises(ValueError) as info:
            LacunarySeries(m, p, g)
        assert str(info.value) == message

    @pytest.mark.parametrize("m, p", [(0, 1), (0, 2), (1, 1), (2, 3), (3, 2)])
    def test_expand_matches_per_element_embedding(self, m, p):
        g = schur_from_parameters((0.3 + 0.2j, -0.5j, 0.4), 12)
        coeffs = [0j] * (m + p * g.truncation_order + 1)
        for s, c in enumerate(g.coeffs):
            coeffs[s * p + m] = c
        got = LacunarySeries(m, p, g).expand()
        assert got.coeffs == tuple(coeffs)
        assert _bits(got.coeffs) == _bits(coeffs)
        assert got.moduli_array.tobytes() == np.abs(np.asarray(coeffs)).tobytes()
        assert got.coefficient_bound == g.coefficient_bound
        assert got.certificate is g.certificate

    @pytest.mark.parametrize("m, p", [(0, 1), (2, 3)])
    def test_expand_built_once_without_changing_identity(self, m, p):
        fam = LacunarySeries(m, p, mobius_series(-0.4, 30))
        twin = LacunarySeries(m, p, mobius_series(-0.4, 30))
        before = (hash(fam), repr(fam))
        assert fam.expand() is fam.expand()
        assert (hash(fam), repr(fam)) == before
        assert fam == twin and hash(fam) == hash(twin)
        assert series_from_json(series_to_json(fam)) == fam

    def test_expansion_past_cap_rejected(self, monkeypatch):
        g = mobius_series(-0.3, 25)
        monkeypatch.setattr(series_module, "_TRUNCATION_CAP", 51)
        assert LacunarySeries(1, 2, g).expand().truncation_order == 51
        with pytest.raises(ValueError, match="m \\+ p\\*T = 52 exceeds the truncation cap 51$"):
            LacunarySeries(2, 2, g).expand()
        assert LacunarySeries(0, 1, g).expand() is g  # nothing is expanded

    def test_huge_gap_rejected_before_allocating(self):
        fam = LacunarySeries(0, 100_000_000_000, mobius_series(-0.3, 25))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the truncation cap 20000$"):
                fam.expand()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestConstruction:
    """The constructor converts its input once to a complex128 array."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(5)
        pairs = [[0.25, -0.5]] + rng.normal(scale=0.3, size=(400, 2)).tolist()
        return pairs + [
            [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [5e-324, -5e-324],
            [1, 0], [True, False], [0, -1], [2**60 + 1, 3], [10**19, -(10**19)],
        ]

    def test_json_coeffs_match_per_element_build(self):
        pairs = self._pairs()
        data = {"m": 0, "p": 1, "coeffs": pairs, "bound": 0.5, "certificate": "UNKNOWN"}
        g = series_from_json(data).g
        expected = tuple(complex(re, im) for re, im in pairs)
        assert _bits(g.coeffs) == _bits(expected)
        assert all(type(c) is complex for c in g.coeffs)
        assert g.moduli_array.tobytes() == np.abs(np.asarray(expected)).tobytes()
        assert g.coeffs_array.tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("make", [
        tuple,
        list,
        lambda v: (c for c in v),
        np.array,
        lambda v: np.array(v).astype(np.complex64),
        lambda v: np.array([c.real for c in v], dtype=np.float32),
        lambda v: np.array([0, 1, -1, 2, 0]),
        lambda v: [str(c) for c in v],
    ], ids=["tuple", "list", "generator", "array", "complex64", "float32", "int", "str"])
    def test_accepts_todays_inputs(self, make):
        values = [0.25 - 0.5j, 0.1 + 0.05j, -0.0 + 0j, 0.125, 1e-300j]
        got = CoefficientSeries(make(values), 0.5)
        expected = tuple(map(complex, make(values)))
        assert _bits(got.coeffs) == _bits(expected)
        assert all(type(c) is complex for c in got.coeffs)

    @pytest.mark.parametrize("bad", [
        ((0.1, 0.2),),
        np.zeros((2, 2)),
        np.array(0.5),
        0.5,
        "0.5",
        (None,),
        (0.1, {}),
    ], ids=["nested", "2-D", "0-D", "scalar", "str", "None", "dict"])
    def test_rejects_todays_rejections(self, bad):
        with pytest.raises((TypeError, ValueError)):
            CoefficientSeries(bad, 0.5)

    def test_input_array_left_alone(self):
        values = np.array([0.25, 0.1j, -0.05])
        f = CoefficientSeries(values, 0.5)
        assert values.flags.writeable
        values[1] = 0.9
        assert f.coeffs[1] == 0.1j and f.coeffs_array[1] == 0.1j
        with pytest.raises(ValueError):
            f.coeffs_array[0] = 0.0

    @pytest.mark.parametrize("position", [0, 1, 3])
    @pytest.mark.parametrize("bad", [
        float("nan"), complex(0.0, float("nan")), float("-inf"),
        complex(1.7e308, 1.7e308),  # finite parts, modulus past the largest double
    ])
    def test_non_finite_anywhere_rejected(self, position, bad):
        coeffs = [0.1, 0.2j, -0.1, 0.05]
        coeffs[position] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^coefficients must be finite"):
                CoefficientSeries(coeffs, 0.5)

    @pytest.mark.parametrize("bad", [
        [["0.5", 0.0]], [[0.5, None]], [[0.5, [0.0]]], [[0.5]], [[]], [[0.5, 0.0, 0.0]],
        [[10**400, 0.0]], [0.5], "ab",
    ])
    def test_json_pairs_rejected(self, bad):
        data = {"m": 0, "p": 1, "coeffs": [[0.1, 0.0]] + list(bad), "bound": 0.5,
                "certificate": "UNKNOWN"}
        with pytest.raises(ValueError, match="^malformed series object"):
            series_from_json(data)


class TestModuliArray:
    """The moduli array is built once per series, read-only, outside the fields."""

    def test_values_and_reuse(self):
        f = schur_from_parameters((0.3 + 0.2j, -0.5j, 0.4), 40)
        mods = f.moduli_array
        assert mods is f.moduli_array
        assert np.array_equal(mods, np.abs(np.asarray(f.coeffs)))

    def test_read_only(self):
        mods = mobius_series(0.4, 30).moduli_array
        with pytest.raises(ValueError):
            mods[0] = 0.0
        with pytest.raises(ValueError):
            mods *= 2.0

    def test_identity_unchanged_after_first_use(self):
        f = schur_from_parameters((0.3 + 0.2j, -0.5j, 0.4), 40)
        twin = schur_from_parameters((0.3 + 0.2j, -0.5j, 0.4), 40)
        before = (hash(f), repr(f))
        f.moduli_array
        assert (hash(f), repr(f)) == before
        assert f == twin and hash(f) == hash(twin)
        assert series_from_json(series_to_json(f)).g == f


class TestTailBound:
    def test_zero_bound(self):
        for w in TailWeight:
            assert weighted_tail(0.0, 0.7, 0, w) == 0.0

    def test_linear_closed_form(self):
        got = weighted_tail(1.0, 1.0 / 3.0, 100, TailWeight.LINEAR)
        assert got == pytest.approx(3.0 ** (-101) * 1.5, rel=1e-12)

    def test_s_star_dominates_brute_force(self):
        # dropped tail of sum s |c_s|^2 r^(2s), summed directly to order 5000
        a, T, r = 0.9, 50, 0.5
        s = mobius_series(a, T)
        exact = sum(
            k * ((1 - a * a) * a ** (k - 1)) ** 2 * r ** (2 * k)
            for k in range(T + 1, 5001)
        )
        bound = weighted_tail(s.coefficient_bound, r, T, TailWeight.S_STAR)
        assert bound >= exact
        assert bound <= exact * 10.0  # not wildly loose either
        # the energy S* charges exactly this tail
        assert _energy(s.moduli_array, s.coefficient_bound, r)[1] == bound

    def test_squared_and_linear_dominate_brute_force(self):
        a, T, r = 0.8, 30, 0.6
        s = mobius_series(a, T)
        lin = sum((1 - a * a) * a ** (k - 1) * r**k for k in range(T + 1, 4001))
        sq = sum(((1 - a * a) * a ** (k - 1)) ** 2 * r ** (2 * k) for k in range(T + 1, 4001))
        assert weighted_tail(s.coefficient_bound, r, T, TailWeight.LINEAR) >= lin
        assert weighted_tail(s.coefficient_bound, r, T, TailWeight.SQUARED) >= sq

    @pytest.mark.parametrize("weight", list(TailWeight))
    def test_row_bounds_match_per_series(self, weight):
        # one call over an array of bounds equals one call per bound
        series = [mobius_series(a, 40) for a in (0.0, 0.3, 0.9)] + [
            schur_from_parameters([0.4 + 0j], 40)]
        bounds = np.array([s.coefficient_bound for s in series])
        rows = weighted_tail(bounds, 0.55, 40, weight)
        assert rows.tolist() == [weighted_tail(b, 0.55, 40, weight) for b in bounds.tolist()]


class TestConstructorInvariants:
    def test_rejects_empty_coefficients(self):
        for empty in ((), []):
            with pytest.raises(ValueError, match="^a series needs at least its constant"):
                CoefficientSeries(empty)

    def test_rejects_large_constant(self):
        with pytest.raises(ValueError, match="^constant coefficient must lie in the closed"):
            CoefficientSeries((1.5 + 0j,))

    def test_unimodular_constant_forces_zeros(self):
        message = r"^\|c_0\| = 1 forces a constant function"
        for coeffs in ((1.0 + 0j, 0.5 + 0j), (1j, 0j, 0j, 1e-8), (1.0 - 1e-13, 0j, 2e-9)):
            for certificate in Certificate:
                with pytest.raises(ValueError, match=message):
                    CoefficientSeries(coeffs, 0.0, certificate)
        s = CoefficientSeries((1.0 + 0j,), 0.0, Certificate.SCHUR_EXACT)
        assert s.moduli_array.tolist() == [1.0]
        # tails within the constructor tolerance are roundoff, not a violation
        assert CoefficientSeries((-1.0 + 0j, 1e-10j, -1e-9)).truncation_order == 2

    def test_exact_certificate_enforces_coefficient_cap(self):
        cap = 1.0 - 0.8 * 0.8 + 1e-9
        # several violations: the message names the first, not the largest
        for coeffs, s, c in (
            ((0.8, 0.9), 1, 0.9),
            ((0.8, 0.1, 0.5j, -0.2, 0.9), 2, 0.5),
            ((0.8, 0.1, 0.36, 0.4, 0.9, 0.37), 3, 0.4),
        ):
            message = f"coefficient c_{s} violates |c_s| <= 1 - |c_0|^2 ({c!r} > {cap!r})"
            with pytest.raises(ValueError) as info:
                CoefficientSeries(coeffs, 0.0, Certificate.SCHUR_EXACT)
            assert str(info.value) == message
            unchecked = CoefficientSeries(coeffs, 0.0, Certificate.SCHUR_SAMPLED)
            with pytest.raises(ValueError) as info:
                dataclasses.replace(unchecked, certificate=Certificate.SCHUR_EXACT)
            assert str(info.value) == message
        at_cap = CoefficientSeries((0.8, 0.36, -0.36j), 0.0, Certificate.SCHUR_EXACT)
        assert at_cap.truncation_order == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.1, float("nan"))])
    def test_rejects_non_finite_coefficients(self, bad):
        for certificate in Certificate:
            with pytest.raises(ValueError, match="finite"):
                CoefficientSeries((0.1 + 0j, bad), 0.5, certificate)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_bound(self, bad):
        with pytest.raises(ValueError, match="^coefficient_bound must lie in"):
            CoefficientSeries((0.1 + 0j, 0.2 + 0j), bad)

    @pytest.mark.parametrize("bad", [-1e-300, -0.5, 1.0 + 1e-15, 2.0, float("-inf")])
    def test_rejects_bound_outside_unit_interval(self, bad):
        message = f"coefficient_bound must lie in [0, 1], got {bad!r}"
        with pytest.raises(ValueError) as info:
            CoefficientSeries((0.1 + 0j, 0.2 + 0j), bad)
        assert str(info.value) == message

    def test_boundary_invariant_for_exact_series(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            mags = 0.95 * np.sqrt(rng.random(5))
            args = 2.0 * np.pi * rng.random(5)
            s = schur_from_parameters(mags * np.exp(1j * args), 60)
            for r in (0.0, 0.3, 0.7, 0.99):
                assert _boundary_max(s, r) <= 1.0 + _linear_tail(s, r) + 1e-12


class TestTruncationPolicy:
    def test_default_meets_target(self):
        for r in (0.1, 0.5, 0.9, 0.99):
            T = default_truncation(r)
            assert r ** (T + 1) / (1 - r) <= 1e-12

    def test_rejects_radius_beyond_cap(self):
        with pytest.raises(RadiusError):
            default_truncation(0.995)

    @pytest.mark.parametrize("r", [-0.1, float("nan"), float("inf")])
    def test_rejects_radius_outside_the_evaluation_range(self, r):
        with pytest.raises(RadiusError, match="outside the supported range"):
            default_truncation(r)

    def test_largest_admitted_radius(self):
        # the largest order any radius asks for, far below the expansion cap
        assert default_truncation(math.nextafter(0.995, 0.0)) == 6569


class TestSerialization:
    def test_roundtrip_plain(self):
        s = mobius_series(0.3, 6)
        data = series_to_json(s)
        assert (data["m"], data["p"]) == (0, 1)
        back = series_from_json(json.loads(json.dumps(data)))
        assert back.g.coeffs == s.coeffs
        assert back.g.certificate is Certificate.SCHUR_EXACT

    def test_roundtrip_lacunary(self):
        fam = LacunarySeries(2, 3, mobius_series(-0.4, 5))
        back = series_from_json(series_to_json(fam))
        assert (back.m, back.p) == (2, 3)
        assert back.g.coeffs == fam.g.coeffs

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            series_from_json({"m": 0, "p": 1})

    def test_nan_coefficient_is_malformed(self):
        data = series_to_json(mobius_series(0.3, 6))
        data["coeffs"][2] = [float("nan"), 0.0]
        with pytest.raises(ValueError, match="malformed series object"):
            series_from_json(data)


def _dense_schur(params, base, T):
    """The unbanded O(T^2) division, kept as the oracle for the banded one."""
    A = [0j] * (T + 1)
    B = [0j] * (T + 1)
    A[0] = base
    B[0] = 1.0 + 0j
    for g in reversed(params):
        shifted = [0j] + A[:-1]
        A = [g * b + sh for b, sh in zip(B, shifted)]
        B = [b + g.conjugate() * sh for b, sh in zip(B, shifted)]
    coeffs = [0j] * (T + 1)
    for k in range(T + 1):
        acc = A[k]
        for j in range(1, k + 1):
            acc -= B[j] * coeffs[k - j]
        coeffs[k] = acc
    return coeffs
