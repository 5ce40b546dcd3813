import itertools
import math

import numpy as np
import pytest

from bohrlab.series import (
    Certificate,
    CoefficientSeries,
    lacunary_expand,
    mobius_minus_series,
    schur_from_parameters,
)
from bohrlab.spaces import (
    BanachFunction,
    MappingForm,
    SpaceSpec,
    banach_from_json,
    banach_to_json,
    dual_exponent,
    lq_norm,
    slice_series,
    support_functional,
    unit_vector,
)


def _random_schur(seed, params=5, order=80):
    rng = np.random.default_rng(seed)
    mags = 0.9 * np.sqrt(rng.random(params))
    args = 2.0 * np.pi * rng.random(params)
    return schur_from_parameters(mags * np.exp(1j * args), order)


class TestNorms:
    def test_euclidean(self):
        assert lq_norm([3.0, 4.0], SpaceSpec(2, 2.0)) == pytest.approx(5.0)

    def test_one_norm(self):
        assert lq_norm([1.0, -1.0], SpaceSpec(2, 1.0)) == pytest.approx(2.0)

    def test_sup_norm(self):
        assert lq_norm([0.2, 0.9j], SpaceSpec(2, math.inf)) == pytest.approx(0.9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lq_norm([1.0, 2.0, 3.0], SpaceSpec(2, 2.0))


class TestSupportFunctional:
    def test_euclidean_axis(self):
        spec = SpaceSpec(2, 2.0)
        w = support_functional([1.0, 0.0], spec)
        assert complex(np.dot(w, [1.0, 0.0])) == pytest.approx(1.0)
        assert complex(np.dot(w, [0.0, 1.0])) == pytest.approx(0.0)

    def test_q4_diagonal(self):
        spec = SpaceSpec(2, 4.0)
        x = np.array([1.0, 1.0])
        w = support_functional(x, spec)
        assert complex(np.dot(w, x)).real == pytest.approx(2.0 ** 0.25, abs=1e-14)
        assert lq_norm(w, SpaceSpec(2, dual_exponent(4.0))) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_defining_identities_random(self, q):
        rng = np.random.default_rng(17)
        spec = SpaceSpec(4, q)
        for _ in range(100):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            w = support_functional(x, spec)
            assert abs(complex(np.dot(w, x)) - lq_norm(x, spec)) < 1e-12
            assert abs(lq_norm(w, SpaceSpec(4, dual_exponent(q))) - 1.0) < 1e-12

    def test_norm_one_on_unit_ball(self):
        rng = np.random.default_rng(23)
        spec = SpaceSpec(3, 1.5)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = support_functional(x, spec)
        for _ in range(1000):
            y = rng.normal(size=3) + 1j * rng.normal(size=3)
            y = np.asarray(unit_vector(y, spec))
            assert abs(complex(np.dot(w, y))) <= 1.0 + 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            support_functional([0.0, 0.0], SpaceSpec(2, 2.0))

    def test_sup_norm_selection_first_max(self):
        spec = SpaceSpec(3, math.inf)
        w = support_functional([1.0, -1.0, 0.5], spec)
        assert w[0] == pytest.approx(1.0)
        assert w[1] == 0.0 and w[2] == 0.0


class TestSlices:
    def test_slice_along_u_recovers_profile(self):
        spec = SpaceSpec(3, 2.0)
        u = unit_vector([1.0, 2.0, -1.0j], spec)
        h = _random_schur(1)
        f = BanachFunction(MappingForm.SCALAR_COMPOSITE, spec, u, h)
        sliced = slice_series(f, u)
        assert max(abs(a - b) for a, b in zip(sliced.coeffs, h.coeffs)) < 1e-12

    def test_annihilated_direction(self):
        spec = SpaceSpec(2, 2.0)
        f = BanachFunction(
            MappingForm.SCALAR_COMPOSITE, spec, (1.0 + 0j, 0j), _random_schur(2)
        )
        sliced = slice_series(f, (0j, 1.0 + 0j))  # T_u annihilates omega
        assert sliced.coeffs[0] == f.profile.coeffs[0]
        assert all(c == 0j for c in sliced.coeffs[1:])

    def test_z_times_scalar_term_norms(self):
        # h = lam^(m-1) G(lam^p): term norms a r^m and (1-a^2) a^(s-1) r^(sp+m)
        a, m, p, r = 0.45, 2, 3, 0.6
        spec = SpaceSpec(2, 2.0)
        u = unit_vector([0.6, 0.8], spec)
        h = lacunary_expand(m - 1, p, mobius_minus_series(a, 6))
        f = BanachFunction(MappingForm.Z_TIMES_SCALAR, spec, u, h)
        sliced = slice_series(f, u)
        mods = sliced.moduli()
        assert mods[m] * r**m == pytest.approx(a * r**m, abs=1e-12)
        for s in range(1, 7):
            k = s * p + m
            assert mods[k] * r**k == pytest.approx(
                (1 - a * a) * a ** (s - 1) * r**k, abs=1e-12
            )

    def test_vector_valued_scaling(self):
        spec = SpaceSpec(2, 2.0)
        u = unit_vector([1.0, 1.0], spec)
        direction = unit_vector([1.0, 0.0], spec)
        h = _random_schur(4)
        f = BanachFunction(MappingForm.VECTOR_VALUED, spec, u, h, spec, direction)
        # with the functional taken at the direction itself, tau = 1
        sliced = slice_series(f, u)
        assert max(abs(a - b) for a, b in zip(sliced.coeffs, h.coeffs)) < 1e-12
        # with another functional direction the slice scales by |T_v(dir)| <= 1
        other = unit_vector([1.0, 1.0], spec)
        scaled = slice_series(f, u, functional_direction=other)
        ratios = [
            abs(c1) / abs(c0)
            for c0, c1 in zip(sliced.coeffs, scaled.coeffs)
            if abs(c0) > 1e-13
        ]
        assert all(rho <= 1.0 + 1e-12 for rho in ratios)
        assert max(ratios) - min(ratios) < 1e-12

    def test_slice_requires_unit_omega(self):
        spec = SpaceSpec(2, 2.0)
        f = BanachFunction(
            MappingForm.SCALAR_COMPOSITE, spec, (1.0 + 0j, 0j), _random_schur(5)
        )
        with pytest.raises(ValueError):
            slice_series(f, (0.5 + 0j, 0j))

    def test_certificate_survives_slice(self):
        spec = SpaceSpec(2, 2.0)
        u = unit_vector([1.0, 2.0], spec)
        f = BanachFunction(MappingForm.SCALAR_COMPOSITE, spec, u, _random_schur(6))
        sliced = slice_series(f, unit_vector([2.0, -1.0], spec))
        assert sliced.certificate is Certificate.SCHUR_EXACT


def _slice_per_coefficient(f, omega, functional_direction=None):
    """The slice built one coefficient at a time with Python's complex power."""
    omega = np.asarray(omega, dtype=complex)
    beta = complex(np.dot(support_functional(np.asarray(f.u), f.space), omega))
    h = f.profile.coeffs
    if f.form is MappingForm.Z_TIMES_SCALAR:
        return (0j,) + tuple(c * beta**s for s, c in enumerate(h))
    scale = 1.0 + 0j
    if f.form is MappingForm.VECTOR_VALUED:
        v = f.direction if functional_direction is None else functional_direction
        wv = support_functional(np.asarray(v), f.target)
        scale = complex(np.dot(wv, np.asarray(f.direction)))
    return tuple(scale * c * beta**s for s, c in enumerate(h))


class TestSliceArithmetic:
    """Array products against the per-coefficient build they replace.

    Powers of beta are taken in polar form on arrays, so a coefficient
    h_s beta^s may move by a few ulps per power: |change| <= 4 (s+1) eps |c|.
    """

    @pytest.mark.parametrize("form", list(MappingForm))
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_within_stated_ulps(self, form, q):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(17)
        for T in (40, 99, 600, 1500):
            dim = int(rng.integers(1, 6))
            spec = SpaceSpec(dim, q)
            h = schur_from_parameters(
                0.95 * np.sqrt(rng.random(4)) * np.exp(2j * np.pi * rng.random(4)), T
            )
            if T == 99:
                h = lacunary_expand(1, 2, h)  # its zeros must stay exact zeros
            u, omega, direction = (
                unit_vector(rng.normal(size=dim) + 1j * rng.normal(size=dim), spec)
                for _ in range(3)
            )
            if form is not MappingForm.VECTOR_VALUED:
                direction = None
            f = BanachFunction(form, spec, u, h, direction=direction)
            functionals = (None, omega) if direction is not None else (None,)
            for through, v in itertools.product((u, omega), functionals):
                got = slice_series(f, through, v).coeffs_array
                want = np.asarray(_slice_per_coefficient(f, through, v))
                if form is MappingForm.Z_TIMES_SCALAR:
                    assert got[0] == 0j
                    got, want = got[1:], want[1:]
                s = np.arange(want.size)
                assert np.all(np.abs(got - want) <= 4.0 * (s + 1) * eps * np.abs(want))


class TestValidationAndJson:
    def test_non_unit_u_rejected(self):
        spec = SpaceSpec(2, 2.0)
        with pytest.raises(ValueError):
            BanachFunction(
                MappingForm.SCALAR_COMPOSITE, spec, (0.5 + 0j, 0j), _random_schur(7)
            )

    def test_vector_valued_needs_direction(self):
        spec = SpaceSpec(2, 2.0)
        with pytest.raises(ValueError):
            BanachFunction(
                MappingForm.VECTOR_VALUED, spec, (1.0 + 0j, 0j), _random_schur(8)
            )

    def test_json_roundtrip(self):
        spec = SpaceSpec(2, 1.5)
        u = unit_vector([1.0, 1.0j], spec)
        direction = unit_vector([0.0, 1.0], spec)
        f = BanachFunction(
            MappingForm.VECTOR_VALUED, spec, u, _random_schur(9, order=10), spec, direction
        )
        back = banach_from_json(banach_to_json(f))
        assert back.form is MappingForm.VECTOR_VALUED
        assert back.space == spec
        assert max(abs(a - b) for a, b in zip(back.u, f.u)) < 1e-15
        assert back.profile.coeffs == f.profile.coeffs

    def test_json_inf_exponent(self):
        spec = SpaceSpec(2, math.inf)
        u = unit_vector([1.0, 0.5], spec)
        f = BanachFunction(MappingForm.SCALAR_COMPOSITE, spec, u, _random_schur(10, order=5))
        back = banach_from_json(banach_to_json(f))
        assert math.isinf(back.space.q)
