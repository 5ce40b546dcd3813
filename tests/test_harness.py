import numpy as np
import pytest

from bohrlab.functionals import FunctionalKind, FunctionalTag
from bohrlab.harness import (
    NO_CROSSING,
    WitnessNotFoundError,
    _batch_margins,
    _batch_schur,
    _sample_parameters,
    campaign_function,
    empirical_radius,
    evaluate_kind,
    proof_extremal,
    random_campaign,
    sharpness_witness,
    theorem_radius,
)
from bohrlab.radii import RadiusEquation, maximal_root, unique_root
from bohrlab.series import (
    Certificate,
    CoefficientSeries,
    LacunarySeries,
    mobius_minus_series,
    mobius_series,
)

ALL_CAMPAIGN_KINDS = [
    FunctionalKind.lacunary(1, 0),
    FunctionalKind.lacunary(2, 1),
    FunctionalKind.gap(1, 0),
    FunctionalKind.gap(2, 1),
    FunctionalKind.gap(3, 1),
    FunctionalKind.rogosinski(2, 1.0, 2),
    FunctionalKind.rogosinski_center(1.0, 1),
    FunctionalKind.rogosinski_center(2.0, 3),
    FunctionalKind.improved((8.0 / 9.0,)),
    FunctionalKind.tail_lemma(2),
]


class TestTheoremRadius:
    def test_dispatch(self):
        assert theorem_radius(FunctionalKind.lacunary(2, 1)) == pytest.approx(
            maximal_root(RadiusEquation.refined_lacunary(2, 1))
        )
        assert theorem_radius(FunctionalKind.gap(2, 1)) == pytest.approx(0.6, abs=1e-10)
        assert theorem_radius(FunctionalKind.rogosinski_center(2.0, 1)) == pytest.approx(
            0.5, abs=1e-10
        )
        # note the two constructors follow their own parameter orders:
        # the functional takes (m, p_exp, n), the equation (n, p_exp, m)
        assert theorem_radius(FunctionalKind.rogosinski(2, 1.0, 3)) == pytest.approx(
            unique_root(RadiusEquation.rogosinski(3, 1.0, 2))
        )
        assert theorem_radius(FunctionalKind.improved((0.5,))) == pytest.approx(1 / 3)
        with pytest.raises(ValueError):
            theorem_radius(FunctionalKind.tail_lemma(1))


class TestEvaluateKind:
    def test_lacunary_requires_structure(self):
        with pytest.raises(TypeError):
            evaluate_kind(FunctionalKind.lacunary(1, 0), mobius_series(0.3, 40), 0.2)

    def test_lacunary_shape_mismatch(self):
        fam = LacunarySeries(1, 2, mobius_minus_series(0.3, 40))
        with pytest.raises(ValueError):
            evaluate_kind(FunctionalKind.lacunary(3, 1), fam, 0.2)

    def test_gap_accepts_lacunary_input(self):
        fam = LacunarySeries(1, 1, mobius_minus_series(0.3, 120))
        rep = evaluate_kind(FunctionalKind.gap(2, 1), fam, 0.4)
        expected = 0.4 * (0.3 + (1 - 0.09) * 0.4 / 0.6)
        assert rep.value == pytest.approx(expected, abs=1e-10)

    def test_lemma_margin_is_against_rhs(self):
        f = mobius_series(0.4, 150)
        rep = evaluate_kind(FunctionalKind.tail_lemma(2), f, 0.5)
        assert rep.margin <= 0.0
        assert "threshold" in rep.inputs


class TestEmpiricalRadius:
    def test_constant_has_no_crossing(self):
        f = CoefficientSeries((0.5 + 0j,), 0.0, Certificate.SCHUR_EXACT)
        assert empirical_radius(FunctionalKind.gap(1, 0), f) == NO_CROSSING

    def test_proof_extremals_cross_at_radius(self):
        for kind in (FunctionalKind.lacunary(2, 1), FunctionalKind.gap(2, 1)):
            r0 = theorem_radius(kind)
            crossing = empirical_radius(kind, proof_extremal(kind))
            assert abs(crossing - r0) <= 1e-6

    def test_random_functions_respect_radius(self):
        # 50 random functions never cross before the theorem radius
        kind = FunctionalKind.gap(1, 0)
        r0 = theorem_radius(kind)
        for trial in range(50):
            f = campaign_function(kind, seed=13, trial=trial)
            assert empirical_radius(kind, f) >= r0 - 1e-9

    def test_uncertified_rejected(self):
        f = CoefficientSeries((0.5 + 0j, 0.2 + 0j), 0.5, Certificate.UNKNOWN)
        with pytest.raises(ValueError):
            empirical_radius(FunctionalKind.gap(1, 0), f)


class TestProofExtremal:
    def test_requires_positive_m(self):
        with pytest.raises(ValueError):
            proof_extremal(FunctionalKind.lacunary(2, 0))
        with pytest.raises(ValueError):
            proof_extremal(FunctionalKind.gap(3, 1))  # N != m + 1


class TestSharpnessWitness:
    @pytest.mark.parametrize(
        "kind",
        [
            FunctionalKind.lacunary(1, 1),
            FunctionalKind.lacunary(2, 1),
            FunctionalKind.lacunary(1, 0),
            FunctionalKind.gap(2, 1),
            FunctionalKind.gap(1, 0),
            FunctionalKind.rogosinski(2, 1.0, 2),
            FunctionalKind.rogosinski_center(1.0, 1),
            FunctionalKind.rogosinski_center(2.0, 1),
            FunctionalKind.improved((8.0 / 9.0,)),
        ],
    )
    def test_witness_exists_just_past_radius(self, kind):
        r = theorem_radius(kind) + 0.01
        w = sharpness_witness(kind, r)
        assert w.exceeds_one
        assert w.value > 1.0 + 1e-6
        assert 0.0 < w.witness_param < 1.0

    def test_zero_base_branch_value(self):
        # m = 0 takes a = 1/(2c) and the value collapses to c + 1/(4c)
        r = 0.34
        c = r / (1 - r)
        w = sharpness_witness(FunctionalKind.lacunary(1, 0), r)
        assert w.value == pytest.approx(c + 1.0 / (4.0 * c), abs=1e-9)
        assert w.witness_param == pytest.approx(1.0 / (2.0 * c), abs=1e-12)

    def test_below_radius_rejected(self):
        kind = FunctionalKind.gap(2, 1)
        with pytest.raises(ValueError):
            sharpness_witness(kind, theorem_radius(kind) - 0.05)

    def test_improved_requires_past_one_third(self):
        kind = FunctionalKind.improved((8.0 / 9.0,))
        with pytest.raises(ValueError):
            sharpness_witness(kind, 0.3)

    def test_gap_witness_only_at_adjacent_start(self):
        with pytest.raises(ValueError):
            sharpness_witness(FunctionalKind.gap(3, 1), 0.9)

    def test_witness_value_recomputed_through_evaluator(self):
        kind = FunctionalKind.lacunary(1, 1)
        r = theorem_radius(kind) + 0.05
        w = sharpness_witness(kind, r)
        a = w.witness_param
        expected = r * (a + (1 - a * a) * r / (1 - r))
        assert w.value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("delta", [1e-2, 1e-1])
    def test_witness_at_both_offsets(self, delta):
        for kind in (
            FunctionalKind.lacunary(2, 1),
            FunctionalKind.gap(1, 0),
            FunctionalKind.rogosinski_center(1.0, 1),
            FunctionalKind.improved((8.0 / 9.0,)),
        ):
            w = sharpness_witness(kind, theorem_radius(kind) + delta)
            assert w.value > 1.0 + 1e-6


class TestRandomCampaign:
    def test_determinism(self):
        kind = FunctionalKind.gap(1, 0)
        one = random_campaign(kind, 1, seed=5)
        again = random_campaign(kind, 1, seed=5)
        assert one == again

    def test_trial_prefix_stability(self):
        kind = FunctionalKind.lacunary(1, 0)
        small = random_campaign(kind, 3, seed=17)
        large = random_campaign(kind, 300, seed=17)
        assert large.max_margin >= small.max_margin
        # the shared trials evaluate identically
        rng = np.random.default_rng(17)
        a = _sample_parameters(rng, 3)
        rng = np.random.default_rng(17)
        b = _sample_parameters(rng, 300)[:3]
        assert np.allclose(a, b, rtol=0, atol=0)

    def test_margins_nonpositive_at_theorem_radius(self):
        for kind in (
            FunctionalKind.lacunary(1, 0),
            FunctionalKind.gap(2, 1),
            FunctionalKind.rogosinski(2, 1.0, 2),
            FunctionalKind.improved((8.0 / 9.0,)),
        ):
            summary = random_campaign(kind, 300, seed=7)
            assert summary.max_margin <= 0.0
            assert summary.max_value <= 1.0

    def test_batch_agrees_with_scalar_route(self):
        # the vectorized campaign path must track the canonical evaluators
        for kind in ALL_CAMPAIGN_KINDS:
            r = 0.45 if kind.tag is FunctionalTag.LEMMA_TAIL else theorem_radius(kind)
            rng = np.random.default_rng(31)
            params = _sample_parameters(rng, 5)
            margins, _tails = _batch_margins(kind, params, r)
            for trial in range(5):
                f = campaign_function(kind, seed=31, trial=trial, r=r)
                rep = evaluate_kind(kind, f, r)
                assert rep.margin == pytest.approx(float(margins[trial]), abs=1e-12)

    def test_summary_serializes(self):
        summary = random_campaign(FunctionalKind.gap(1, 0), 10, seed=2)
        payload = summary.to_json()
        assert payload["trials"] == 10
        assert payload["seed"] == 2

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            random_campaign(FunctionalKind.gap(1, 0), 0, seed=1)


def _dense_batch_schur(params, T):
    """The unbanded O(T^2) division, kept as the oracle for the banded one."""
    trials, count = params.shape
    A = np.zeros((trials, T + 1), dtype=complex)
    B = np.zeros((trials, T + 1), dtype=complex)
    B[:, 0] = 1.0
    for k in range(count - 1, -1, -1):
        g = params[:, k : k + 1]
        shifted = np.zeros_like(A)
        shifted[:, 1:] = A[:, :-1]
        A = g * B + shifted
        B = B + np.conj(g) * shifted
    coeffs = np.zeros((trials, T + 1), dtype=complex)
    coeffs[:, 0] = A[:, 0]
    for k in range(1, T + 1):
        conv = np.einsum("tj,tj->t", B[:, 1 : k + 1], coeffs[:, k - 1 :: -1])
        coeffs[:, k] = A[:, k] - conv
    return coeffs, 1.0 - np.abs(coeffs[:, 0]) ** 2


class TestBatchSchur:
    def _assert_matches_dense(self, params, T):
        coeffs, bound = _batch_schur(params, T)
        want_coeffs, want_bound = _dense_batch_schur(params, T)
        assert coeffs.shape == (params.shape[0], T + 1)
        assert np.array_equal(coeffs, want_coeffs)
        assert np.array_equal(bound, want_bound)

    @pytest.mark.parametrize("T", [1, 7, 8, 30, 118])
    def test_plain_rows_bit_identical(self, T):
        params = _sample_parameters(np.random.default_rng(11), 64)
        self._assert_matches_dense(params, T)

    def test_gap_rows_with_inserted_zeros(self):
        params = _sample_parameters(np.random.default_rng(12), 64)
        for gap in (1, 2):
            rows = np.concatenate(
                [params[:, :1], np.zeros((64, gap), dtype=complex), params[:, 1:]], axis=1
            )
            self._assert_matches_dense(rows, 60)

    def test_truncation_below_parameter_count(self):
        params = _sample_parameters(np.random.default_rng(13), 16)
        self._assert_matches_dense(params, 3)

    def test_constant_term_only(self):
        params = _sample_parameters(np.random.default_rng(14), 16)
        self._assert_matches_dense(params, 0)
