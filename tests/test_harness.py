import tracemalloc

import numpy as np
import pytest

from bohrlab.functionals import EvaluationReport, FunctionalKind, FunctionalTag, SupportError
from bohrlab.harness import (
    NO_CROSSING,
    WitnessNotFoundError,
    _BLOCK,
    _PARAM_COUNT,
    _batch_margins,
    _batch_schur,
    _campaign_radius,
    _campaign_truncation,
    _sample_parameters,
    _shape_parameters,
    campaign_function,
    empirical_radius,
    evaluate_grid,
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
    RadiusError,
    default_truncation,
    mobius_series,
    schur_from_parameters,
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
        fam = LacunarySeries(1, 2, mobius_series(-0.3, 40))
        with pytest.raises(ValueError):
            evaluate_kind(FunctionalKind.lacunary(3, 1), fam, 0.2)

    def test_gap_accepts_lacunary_input(self):
        fam = LacunarySeries(1, 1, mobius_series(-0.3, 120))
        rep = evaluate_kind(FunctionalKind.gap(2, 1), fam, 0.4)
        expected = 0.4 * (0.3 + (1 - 0.09) * 0.4 / 0.6)
        assert rep.value == pytest.approx(expected, abs=1e-10)

    def test_checks_run_at_the_call_input_before_radii(self):
        # evaluate_grid reads the input (shape, expansion, support) and then
        # checks every radius, all before its first report.
        off_support = mobius_series(0.3, 40)  # c_0 = 0.3, off D_NM(1,3)'s support
        with pytest.raises(SupportError):
            evaluate_grid(FunctionalKind.gap(3, 1), off_support, [0.2, 2.0])
        with pytest.raises(TypeError):
            evaluate_grid(FunctionalKind.lacunary(1, 0), off_support, [2.0])
        with pytest.raises(RadiusError):
            evaluate_grid(FunctionalKind.gap(1, 0), off_support, [0.2, 2.0])

    def test_lemma_margin_is_against_rhs(self):
        f = mobius_series(0.4, 150)
        rep = evaluate_kind(FunctionalKind.tail_lemma(2), f, 0.5)
        assert rep.margin <= 0.0
        assert rep.level != 1.0


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

    def test_scan_builds_only_the_bisection_reports(self, monkeypatch):
        # The scan reads margins from columns; only the bisection builds
        # reports, one per midpoint inside the crossing's scan step.
        built = _count_reports(monkeypatch)
        kind = FunctionalKind.gap(2, 1)
        assert empirical_radius(kind, proof_extremal(kind)) == 0.6000000004768371
        assert len(built) == 20
        assert all(0.6 < report.r < 0.601 for report in built)
        built.clear()
        f = CoefficientSeries((0.5 + 0j,), 0.0, Certificate.SCHUR_EXACT)
        assert empirical_radius(FunctionalKind.gap(1, 0), f) == NO_CROSSING
        assert built == []


def _count_reports(monkeypatch):
    """Record every EvaluationReport built while ``monkeypatch`` is active."""
    built = []
    real = EvaluationReport.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(EvaluationReport, "__init__", counting)
    return built


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

    @pytest.mark.parametrize("kind, calls, reached", [
        (FunctionalKind.lacunary(1, 0), 1, 1.000000719712344),
        (FunctionalKind.rogosinski_center(1.0, 1), 19, 1.0000006949343447),
    ])
    def test_no_candidate_clears_the_cushion(self, monkeypatch, kind, calls, reached):
        # ROADMAP item 8: at r = 0.3336, 2.7e-4 past the sharp radius 1/3, the
        # family kind's one candidate and all 19 steps a = 1 - 2^-k of the
        # limit kind's ascent stay under 1 + 1e-6; the error names the
        # largest value reached.  Both flip once sharpness is certified.
        import bohrlab.harness as harness

        seen = []
        real = harness.evaluate_kind
        monkeypatch.setattr(harness, "evaluate_kind",
                            lambda kind, f, r: seen.append(f) or real(kind, f, r))
        with pytest.raises(WitnessNotFoundError) as info:
            sharpness_witness(kind, 0.3336)
        assert str(info.value) == (f"no witness for {kind.label()} at r=0.3336: "
                                   f"the largest value reached is {reached!r}")
        assert len(seen) == calls
        if calls > 1:  # the limit kind evaluates phi_a at the ascent's a, in order
            assert [f.coeffs[0].real for f in seen] == [1.0 - 0.5**k for k in range(1, 20)]

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
            r = _golden_radius(kind)
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

    def test_one_root_isolation_per_kind_object(self, monkeypatch):
        import bohrlab.functionals as functionals

        calls = []
        real = functionals.maximal_root
        monkeypatch.setattr(functionals, "maximal_root",
                            lambda eq: calls.append(eq) or real(eq))
        kind = FunctionalKind.lacunary(2, 1)
        first = random_campaign(kind, 300, seed=3)
        second = random_campaign(kind, 300, seed=3)
        campaign_function(kind, seed=3, trial=first.argmax_trial)
        sharpness_witness(kind)
        assert len(calls) == 1
        assert repr(second) == repr(first)  # repr tells every two doubles apart
        # The kept root leaves equality and hashing alone, and a new kind
        # object isolates its own root to the same summary.
        other = FunctionalKind.lacunary(2, 1)
        assert other == kind and hash(other) == hash(kind)
        assert repr(random_campaign(other, 300, seed=3)) == repr(first)
        assert len(calls) == 2


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
        assert coeffs.shape == (T + 1, params.shape[0])
        assert np.array_equal(coeffs, want_coeffs.T)
        assert np.array_equal(bound, want_bound)

    @pytest.mark.parametrize("T", [1, 7, 8, 30, 118])
    def test_plain_rows_bit_identical(self, T):
        params = _sample_parameters(np.random.default_rng(11), 64)
        self._assert_matches_dense(params, T)

    # 1,808 trials is the merged last block of a 10,000-trial campaign;
    # T = width - 1 is the last degree row of A and B, T = width one past it.
    @pytest.mark.parametrize("trials", [1, 2, 1023, 1808])
    @pytest.mark.parametrize("count", [0, 1, 9])
    def test_trial_and_parameter_counts_bit_identical(self, trials, count):
        rng = np.random.default_rng(17)
        params = np.concatenate(
            [_sample_parameters(rng, trials), _sample_parameters(rng, trials)], axis=1
        )[:, :count]
        width = max(count, 1)
        for T in (width - 1, width, 222):
            self._assert_matches_dense(params, T)

    def test_gap_rows_with_inserted_zeros(self):
        params = _sample_parameters(np.random.default_rng(12), 64)
        for gap in (1, 2):
            rows = np.concatenate(
                [params[:, :1], np.zeros((64, gap), dtype=complex), params[:, 1:]], axis=1
            )
            self._assert_matches_dense(rows, 60)

    # A gap kind's inserted zero parameters make g_1..g_{N-m-1} vanish.  The
    # recursion's g * B is numpy's fused complex product and the division's
    # vecdot is unfused, so they leave a residue of a few ulp there, where
    # schur_from_parameters gives exact zeros.  It grows with the gap: 4.4e-16
    # for D_NM(3,1), 3.3e-15 for D_NM(5,1) and 1.2e-14 for D_NM(64,32) on
    # these rows, far below the 1e-12 support tolerance a replay's read uses.
    @pytest.mark.parametrize("kind, bound", [(FunctionalKind.gap(3, 1), 1e-14),
                                             (FunctionalKind.gap(5, 1), 1e-14),
                                             (FunctionalKind.gap(64, 32), 1e-13)],
                             ids=["D_NM(3,1)", "D_NM(5,1)", "D_NM(64,32)"])
    def test_gap_rows_vanish_on_the_gap(self, kind, bound):
        m, n = kind.spec.support(kind)
        T = _campaign_truncation(kind, theorem_radius(kind))
        params = _sample_parameters(np.random.default_rng(203), 10_000)
        coeffs, _ = _batch_schur(_shape_parameters(kind, params), T)
        assert np.abs(coeffs[1 : n - m]).max() <= bound

    def test_truncation_below_parameter_count(self):
        params = _sample_parameters(np.random.default_rng(13), 16)
        self._assert_matches_dense(params, 3)

    def test_constant_term_only(self):
        params = _sample_parameters(np.random.default_rng(14), 16)
        self._assert_matches_dense(params, 0)

    @pytest.mark.parametrize("gap", [0, 2])
    def test_shorter_truncation_is_a_prefix(self, gap):
        params = _shape_parameters(
            FunctionalKind.gap(gap + 1, 0), _sample_parameters(np.random.default_rng(15), 32)
        )
        count = params.shape[1]
        for T1 in range(count - 1, count + 12):
            short, short_bound = _batch_schur(params, T1)
            for T2 in (T1 + 1, T1 + 7, 90):
                coeffs, bound = _batch_schur(params, T2)
                assert np.array_equal(short, coeffs[: T1 + 1])
                assert np.array_equal(short_bound, bound)

    def test_layout_is_degree_major(self):
        params = _sample_parameters(np.random.default_rng(16), 8)
        coeffs, bound = _batch_schur(params, 20)
        assert coeffs.shape == (21, 8) and coeffs.flags.c_contiguous
        assert bound.shape == (8,)
        # Column k is trial k's series.
        want = schur_from_parameters([complex(c) for c in params[3]], 20)
        assert coeffs[:, 3] == pytest.approx(np.asarray(want.coeffs), rel=0, abs=1e-13)


def _one_block_margins(kind, params, r):
    """The unblocked margin pipeline, kept as the oracle for the blocked one."""
    T = _campaign_truncation(kind, r)
    coeffs, bound = _batch_schur(_shape_parameters(kind, params), T)
    m, _ = kind.spec.support(kind)  # the trial is lam^m g
    coeffs = np.pad(coeffs, ((m, 0), (0, 0)))
    mods = np.abs(coeffs)
    value, tail = kind.spec.batch(kind, coeffs, mods, bound, r)
    return value + tail - kind.spec.level(kind, mods, r), tail


# One kind per tag; the gap kind carries inserted zero parameters.
BLOCK_KINDS = [
    FunctionalKind.lacunary(2, 1),
    FunctionalKind.gap(3, 1),
    FunctionalKind.rogosinski(2, 1.0, 2),
    FunctionalKind.rogosinski_center(2.0, 3),
    FunctionalKind.improved((8.0 / 9.0,)),
    FunctionalKind.tail_lemma(2),
]


class TestBatchHelpers:
    """A batch is degree-major; column j through a kind's helper is trial j's 1-D call."""

    @pytest.mark.parametrize("kind", BLOCK_KINDS, ids=lambda k: k.label())
    def test_batch_matches_one_series_per_column(self, kind):
        r = _golden_radius(kind)
        T = _campaign_truncation(kind, r)
        params = _sample_parameters(np.random.default_rng(17), 40)
        coeffs, bound = _batch_schur(_shape_parameters(kind, params), T)
        mods = np.abs(coeffs)
        value, tail = kind.spec.batch(kind, coeffs, mods, bound, r)
        assert value.shape == tail.shape == (40,)
        for j in range(40):
            one_value, one_tail = kind.spec.batch(kind, coeffs[:, j], mods[:, j], bound[j], r)
            assert np.ndim(one_value) == 0
            assert one_value == pytest.approx(value[j], rel=0, abs=1e-15)
            assert one_tail == pytest.approx(tail[j], rel=0, abs=1e-15)


class TestBlockedMargins:
    """Campaign rows run in blocks of _BLOCK, the remainder merged into the last."""

    @pytest.mark.parametrize(
        "trials",
        [1, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3001, 10_000],
    )
    @pytest.mark.parametrize("kind", BLOCK_KINDS, ids=lambda k: k.label())
    def test_bit_identical_to_one_block(self, kind, trials):
        r = _golden_radius(kind)
        params = _sample_parameters(np.random.default_rng(trials), trials)
        margins, tails = _batch_margins(kind, params, r)
        want_margins, want_tails = _one_block_margins(kind, params, r)
        assert np.array_equal(margins, want_margins)
        assert np.array_equal(tails, want_tails)

    def test_peak_memory_below_one_full_coefficient_array(self):
        kind = FunctionalKind.gap(3, 1)
        r = theorem_radius(kind)
        trials = 10_000
        params = _sample_parameters(np.random.default_rng(0), trials)
        full_array = trials * (_campaign_truncation(kind, r) + 1) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            _batch_margins(kind, params, r)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_array

    def test_campaign_draws_its_parameters_per_block(self):
        trials = 100_000
        full_params = trials * _PARAM_COUNT * np.dtype(complex).itemsize  # 12.8 MB
        tracemalloc.start()
        try:
            random_campaign(FunctionalKind.gap(1, 0), trials, seed=0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_params

    @pytest.mark.parametrize("trials", [1, _BLOCK + 1, 3001])
    def test_drawn_blocks_equal_one_draw(self, trials):
        kind = FunctionalKind.gap(3, 1)
        r = theorem_radius(kind)
        params = _sample_parameters(np.random.default_rng(9), trials)
        margins, tails = _batch_margins(kind, np.random.default_rng(9), r, trials)
        want_margins, want_tails = _batch_margins(kind, params, r)
        assert np.array_equal(margins, want_margins)
        assert np.array_equal(tails, want_tails)


def _full_draw_campaign_function(kind, seed, trial, r):
    """The replay that samples every row up to ``trial``, kept as the oracle."""
    r = _campaign_radius(kind, r)
    rng = np.random.default_rng(seed)
    params = _sample_parameters(rng, trial + 1)
    gamma = [complex(c) for c in _shape_parameters(kind, params[trial])]
    g = schur_from_parameters(gamma, _campaign_truncation(kind, r))
    if kind.spec.lacunary:
        return LacunarySeries(kind.m, kind.p, g)
    m, _ = kind.spec.support(kind)  # lam^m g
    return LacunarySeries(m, 1, g).expand()


def _trial_series(f):
    return f.g if isinstance(f, LacunarySeries) else f


class TestReplayRow:
    """campaign_function advances the stream past earlier trials and draws one row."""

    @pytest.mark.parametrize("trial", [0, 1, _BLOCK - 1, _BLOCK, 9_999])
    @pytest.mark.parametrize("kind", BLOCK_KINDS, ids=lambda k: k.label())
    def test_same_function_as_full_draw(self, kind, trial):
        r = _golden_radius(kind)
        got = campaign_function(kind, seed=23, trial=trial, r=r)
        want = _full_draw_campaign_function(kind, 23, trial, r)
        assert _trial_series(got).coeffs == _trial_series(want).coeffs
        assert got == want

    def test_gap_kind_keeps_its_zero_parameters(self):
        kind = FunctionalKind.gap(3, 1)
        f = campaign_function(kind, seed=23, trial=9_999, r=_golden_radius(kind))
        assert f.coeffs[0] == 0j and f.coeffs[2] == 0j and f.coeffs[1] != 0j

    @pytest.mark.parametrize("trial", [-1, -3, 1.0, 2.5, "3", None, 2**124])
    def test_bad_trial_rejected(self, trial):
        with pytest.raises(ValueError, match="trial"):
            campaign_function(FunctionalKind.gap(1, 0), seed=0, trial=trial)

    def test_numpy_integer_trial(self):
        kind = FunctionalKind.gap(1, 0)
        assert campaign_function(kind, 0, np.int64(7)) == campaign_function(kind, 0, 7)

    def test_huge_trial_allocates_one_row(self):
        kind = FunctionalKind.gap(1, 0)
        tracemalloc.start()
        try:
            campaign_function(kind, seed=0, trial=10**9)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestLacunaryTruncation:
    """A_PM trials truncate g at r^p, where it is evaluated, not at r."""

    @pytest.mark.parametrize(
        "kind",
        [FunctionalKind.lacunary(2, 1), FunctionalKind.lacunary(3, 2)],
        ids=lambda k: k.label(),
    )
    def test_sized_at_r_to_the_p(self, kind):
        r = theorem_radius(kind)
        T = _campaign_truncation(kind, r)
        assert T == default_truncation(min(r**kind.p + 0.05, 0.9))
        assert T < default_truncation(min(r + 0.05, 0.9))
        assert campaign_function(kind, seed=31, trial=0, r=r).g.truncation_order == T
        assert random_campaign(kind, 2000, seed=5).max_tail_error <= 1e-12
        margins, _tails = _batch_margins(kind, _sample_parameters(np.random.default_rng(31), 8), r)
        for trial, margin in enumerate(margins):
            rep = evaluate_kind(kind, campaign_function(kind, seed=31, trial=trial, r=r), r)
            assert rep.margin == pytest.approx(float(margin), rel=0, abs=1e-15)

    def test_other_kinds_sized_at_r(self):
        for kind in ALL_CAMPAIGN_KINDS:
            if kind.tag is not FunctionalTag.A_PM or kind.p == 1:
                r = _golden_radius(kind)
                assert _campaign_truncation(kind, r) == default_truncation(min(r + 0.05, 0.9))


def _golden_radius(kind):
    return 0.45 if kind.tag is FunctionalTag.LEMMA_TAIL else theorem_radius(kind)


# Recorded at full repr when campaigns still had their own batch copy of every
# formula, so these pin the shared formula helpers to arithmetic written
# independently of them.  Per kind, at its theorem radius (0.45 for the lemma):
# the batch margins and tails of 5 trials of seed 31, (value, tail_error,
# margin) of the same trials through evaluate_kind, and the summary of
# random_campaign(kind, 2000, 3, r) as (max_margin, argmax_trial, max_value,
# max_tail_error).
GOLDEN_MARGINS = [
    (
        FunctionalKind.lacunary(1, 0),
        [
            -0.04379690217021748, -0.29141449177837375, -0.32539896434468474, -0.2959401040677091,
            -0.13157436629989394,
        ],
        [
            9.659992986227304e-16, 5.29228652213939e-15, 5.022131918542882e-15,
            5.730167729197478e-15, 4.3736755602420585e-15,
        ],
        [
            (0.9562030978297815, 9.659992986227288e-16, -0.04379690217021748),
            (0.7085855082216211, 5.29228652213939e-15, -0.29141449177837353),
            (0.67460103565531, 5.022131918542882e-15, -0.32539896434468496),
            (0.7040598959322852, 5.730167729197478e-15, -0.295940104067709),
            (0.868425633700102, 4.3736755602420585e-15, -0.13157436629989372),
        ],
        (-0.0016162633783199931, 348, 0.9983837366216796, 7.284698046315966e-15),
    ),
    (
        FunctionalKind.lacunary(2, 1),
        [
            -0.27018600504181256, -0.29211889224575294, -0.34831488590556714, -0.2439185892017952,
            -0.14031403156296296,
        ],
        [
            9.562618082613688e-34, 5.2389390827857764e-33, 4.9715076984010745e-33,
            5.672406348716547e-33, 4.329587926149252e-33,
        ],
        [
            (0.7298139949581873, 9.562618082613673e-34, -0.27018600504181267),
            (0.7078811077542471, 5.2389390827857764e-33, -0.29211889224575294),
            (0.6516851140944329, 4.9715076984010745e-33, -0.34831488590556714),
            (0.7560814107982048, 5.672406348716547e-33, -0.2439185892017952),
            (0.8596859684370373, 4.329587926149252e-33, -0.14031403156296274),
        ],
        (-0.017169536668894425, 680, 0.9828304633311056, 7.211266650338143e-33),
    ),
    (
        FunctionalKind.lacunary(3, 2),
        [
            -0.315859357300863, -0.3060784665631491, -0.363265049297287, -0.25320757348622636,
            -0.16026243900471515,
        ],
        [
            3.064532755069614e-57, 1.6789231026805988e-56, 1.5932193518771863e-56,
            1.8178363817867158e-56, 1.3875032863397388e-56,
        ],
        [
            (0.684140642699137, 3.064532755069609e-57, -0.315859357300863),
            (0.6939215334368509, 1.6789231026805988e-56, -0.3060784665631491),
            (0.6367349507027131, 1.5932193518771863e-56, -0.36326504929728687),
            (0.7467924265137736, 1.8178363817867158e-56, -0.25320757348622636),
            (0.8397375609952848, 1.3875032863397388e-56, -0.16026243900471515),
        ],
        (-0.017234062901372083, 680, 0.9827659370986279, 2.3109950292464417e-56),
    ),
    (
        FunctionalKind.gap(1, 0),
        [
            -0.04379690217021748, -0.29141449177837364, -0.32539896434468474, -0.2959401040677091,
            -0.13157436629989394,
        ],
        [
            9.659992986227304e-16, 5.29228652213939e-15, 5.022131918542882e-15,
            5.730167729197478e-15, 4.3736755602420585e-15,
        ],
        [
            (0.9562030978297815, 9.659992986227288e-16, -0.04379690217021748),
            (0.7085855082216209, 5.29228652213939e-15, -0.29141449177837375),
            (0.6746010356553103, 5.022131918542882e-15, -0.32539896434468474),
            (0.7040598959322851, 5.730167729197478e-15, -0.2959401040677091),
            (0.8684256337001015, 4.3736755602420585e-15, -0.13157436629989416),
        ],
        (-0.0016162633783199931, 348, 0.9983837366216796, 7.284698046315966e-15),
    ),
    (
        FunctionalKind.gap(2, 1),
        [
            -0.38677098127487797, -0.32910139015225515, -0.38727281367537125,
            -0.27025255317490327, -0.19384147047392353,
        ],
        [
            2.7211233459481764e-16, 1.4907841475011906e-15, 1.414684299405035e-15,
            1.6141309011661826e-15, 1.232020633094234e-15,
        ],
        [
            (0.6132290187251218, 2.7211233459481715e-16, -0.38677098127487797),
            (0.6708986098477433, 1.4907841475011906e-15, -0.32910139015225526),
            (0.6127271863246273, 1.414684299405035e-15, -0.38727281367537125),
            (0.729747446825095, 1.6141309011661826e-15, -0.2702525531749034),
            (0.8061585295260751, 1.232020633094234e-15, -0.19384147047392364),
        ],
        (-0.017804802383824314, 1781, 0.9821951976161738, 2.052026533588101e-15),
    ),
    (
        FunctionalKind.gap(3, 1),
        [
            -0.3321014136960456, -0.35633077840785987, -0.3618148149658298, -0.31982590129531585,
            -0.23237935544374144,
        ],
        [
            1.4003402632607917e-16, 7.671850188949828e-16, 7.280226334501055e-16,
            8.306615333855126e-16, 6.340205416483032e-16,
        ],
        [
            (0.6678985863039543, 1.4003402632607892e-16, -0.3321014136960456),
            (0.6436692215921394, 7.671850188949828e-16, -0.35633077840785987),
            (0.6381851850341693, 7.280226334501055e-16, -0.3618148149658299),
            (0.6801740987046834, 8.306615333855126e-16, -0.31982590129531585),
            (0.7676206445562576, 6.340205416483032e-16, -0.23237935544374178),
        ],
        (-0.18896337920367845, 1429, 0.8110366207963207, 1.0560107025437333e-15),
    ),
    (
        FunctionalKind.gap(4, 1),
        [
            -0.29705978336461913, -0.3527953879295491, -0.3628039763861244, -0.34596270068773427,
            -0.26188985827235545,
        ],
        [
            5.0260187751124655e-17, 2.7535352729003805e-16, 2.612975946222299e-16,
            2.9813614391388684e-16, 2.2755891762414407e-16,
        ],
        [
            (0.7029402166353809, 5.026018775112457e-17, -0.29705978336461913),
            (0.6472046120704507, 2.7535352729003805e-16, -0.3527953879295491),
            (0.6371960236138754, 2.612975946222299e-16, -0.3628039763861244),
            (0.6540372993122654, 2.9813614391388684e-16, -0.34596270068773427),
            (0.7381101417276443, 2.2755891762414407e-16, -0.26188985827235545),
        ],
        (-0.2442590915396572, 675, 0.7557409084603426, 3.7901714011604195e-16),
    ),
    (
        FunctionalKind.rogosinski(2, 1.0, 2),
        [
            -0.047201231221195794, -0.38693563095002514, -0.2751957608607346, -0.313585113786205,
            -0.2986077930712512,
        ],
        [
            9.95177320937082e-16, 5.4521401104981864e-15, 5.173825483324745e-15,
            5.903247525534678e-15, 4.505782491659529e-15,
        ],
        [
            (0.9527987687788034, 9.951773209370802e-16, -0.04720123122119557),
            (0.6130643690499694, 5.4521401104981864e-15, -0.38693563095002514),
            (0.7248042391392602, 5.173825483324745e-15, -0.2751957608607346),
            (0.6864148862137891, 5.903247525534678e-15, -0.313585113786205),
            (0.7013922069287443, 4.505782491659529e-15, -0.2986077930712512),
        ],
        (-0.001867703762201689, 348, 0.9981322962377979, 7.504732452605665e-15),
    ),
    (
        FunctionalKind.rogosinski(3, 2.0, 5),
        [
            -0.11937930804662045, -0.5089815378024446, -0.403335544046882, -0.4080997306818748,
            -0.49268605444429703,
        ],
        [
            1.0182405425800766e-16, 5.578493387599262e-16, 5.293728822512301e-16,
            6.04005521119079e-16, 4.610203943087309e-16,
        ],
        [
            (0.880620691953379, 1.018240542580075e-16, -0.11937930804662089),
            (0.49101846219755485, 5.578493387599262e-16, -0.5089815378024446),
            (0.5966644559531176, 5.293728822512301e-16, -0.4033355440468819),
            (0.5919002693181249, 6.04005521119079e-16, -0.40809973068187455),
            (0.5073139455557023, 4.610203943087309e-16, -0.49268605444429725),
        ],
        (-0.003203541364355522, 348, 0.9967964586356445, 7.678654530897007e-16),
    ),
    (
        FunctionalKind.rogosinski_center(1.0, 1),
        [
            -0.0437969021702177, -0.291414491778375, -0.32539896434468585, -0.29594010406771076,
            -0.13157436629989572,
        ],
        [
            9.65999298622593e-16, 5.292286522138637e-15, 5.022131918542168e-15,
            5.730167729196664e-15, 4.373675560241437e-15,
        ],
        [
            (0.9562030978297814, 9.659992986225913e-16, -0.04379690217021759),
            (0.7085855082216197, 5.292286522138637e-15, -0.291414491778375),
            (0.6746010356553092, 5.022131918542168e-15, -0.32539896434468585),
            (0.7040598959322835, 5.730167729196664e-15, -0.29594010406771076),
            (0.8684256337001, 4.373675560241437e-15, -0.13157436629989572),
        ],
        (-0.0016162633783202152, 348, 0.9983837366216793, 7.284698046314929e-15),
    ),
    (
        FunctionalKind.rogosinski_center(2.0, 3),
        [
            -0.061885210719956896, -0.21154661511252015, -0.2634229353265882,
            -0.23843271930611254, -0.09289184398802963,
        ],
        [
            1.520195201257905e-16, 8.328482832346499e-16, 7.903339943971035e-16,
            9.017577442083577e-16, 6.882862759857595e-16,
        ],
        [
            (0.9381147892800432, 1.5201952012579022e-16, -0.061885210719956674),
            (0.788453384887479, 8.328482832346499e-16, -0.21154661511252015),
            (0.7365770646734109, 7.903339943971035e-16, -0.26342293532658834),
            (0.7615672806938866, 9.017577442083577e-16, -0.23843271930611254),
            (0.9071081560119695, 6.882862759857595e-16, -0.09289184398802985),
        ],
        (-0.001509072801265221, 348, 0.9984909271987347, 1.1463945189619973e-15),
    ),
    (
        FunctionalKind.improved((8.0 / 9.0,)),
        [
            -0.043487253712878204, -0.27523439419314066, -0.3188943393509226,
            -0.27124295801248144, -0.10604026329288041,
        ],
        [
            9.659992986226369e-16, 5.292286522138878e-15, 5.022131918542397e-15,
            5.730167729196924e-15, 4.373675560241636e-15,
        ],
        [
            (0.9565127462871208, 9.659992986226353e-16, -0.043487253712878204),
            (0.724765605806854, 5.292286522138878e-15, -0.27523439419314066),
            (0.6811056606490724, 5.022131918542397e-15, -0.3188943393509226),
            (0.7287570419875129, 5.730167729196924e-15, -0.27124295801248133),
            (0.8939597367071153, 4.373675560241636e-15, -0.10604026329288041),
        ],
        (-0.0011584857139581572, 348, 0.9988415142860414, 7.28469804631526e-15),
    ),
    (
        FunctionalKind.improved((0.5, 0.3)),
        [
            -0.0436226885077039, -0.28221378638580263, -0.32172404815201694, -0.28181636939186994,
            -0.11696388074723274,
        ],
        [
            9.659992986226369e-16, 5.292286522138878e-15, 5.022131918542397e-15,
            5.730167729196924e-15, 4.373675560241636e-15,
        ],
        [
            (0.9563773114922951, 9.659992986226353e-16, -0.0436226885077039),
            (0.717786213614192, 5.292286522138878e-15, -0.28221378638580263),
            (0.6782759518479781, 5.022131918542397e-15, -0.32172404815201694),
            (0.7181836306081243, 5.730167729196924e-15, -0.28181636939186994),
            (0.8830361192527629, 4.373675560241636e-15, -0.11696388074723274),
        ],
        (-0.001358683874655875, 348, 0.9986413161253437, 7.28469804631526e-15),
    ),
    (
        FunctionalKind.tail_lemma(2),
        [
            -0.019463133755905675, -0.13452206479325984, -0.09700661969366323,
            -0.09647722972622041, -0.056656267553581274,
        ],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [
            (0.029355489955852434, 0.0, -0.019463133755905682),
            (0.13293376531706266, 0.0, -0.13452206479325982),
            (0.15679643038278085, 0.0, -0.0970066196936632),
            (0.1931077653931212, 0.0, -0.09647722972622041),
            (0.1643757991541178, 0.0, -0.0566562675535813),
        ],
        (-0.0005049936514100774, 1399, 0.9994950063485899, 0.0),
    ),
    (
        FunctionalKind.tail_lemma(5),
        [
            -0.00178811245166934, -0.006738383890198464, -0.01036262259013385,
            -0.010187136069422103, -0.003584137634144887,
        ],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [
            (0.0026604846340646158, 0.0, -0.0017881124516693427),
            (0.017633528628604667, 0.0, -0.006738383890198468),
            (0.012765180348082111, 0.0, -0.010362622590133852),
            (0.016201296610827896, 0.0, -0.01018713606942211),
            (0.016557409444594183, 0.0, -0.0035841376341448974),
        ],
        (-5.2980813027767503e-05, 392, 0.9999470191869723, 0.0),
    ),
]


class TestGoldenMargins:
    @pytest.mark.parametrize(
        "kind, margins, tails, scalar, summary",
        GOLDEN_MARGINS,
        ids=[row[0].label() for row in GOLDEN_MARGINS],
    )
    def test_both_routes_match_record(self, kind, margins, tails, scalar, summary):
        r = _golden_radius(kind)
        params = _sample_parameters(np.random.default_rng(31), 5)
        got_margins, got_tails = _batch_margins(kind, params, r)
        assert got_margins.tolist() == pytest.approx(margins, rel=0, abs=1e-12)
        assert got_tails.tolist() == pytest.approx(tails, rel=0, abs=1e-12)
        for trial, row in enumerate(scalar):
            rep = evaluate_kind(kind, campaign_function(kind, seed=31, trial=trial, r=r), r)
            assert (rep.value, rep.tail_error, rep.margin) == pytest.approx(row, rel=0, abs=1e-12)
        got = random_campaign(kind, 2000, 3, r)
        assert got.argmax_trial == summary[1]
        assert (got.max_margin, got.max_value, got.max_tail_error) == pytest.approx(
            (summary[0], summary[2], summary[3]), rel=0, abs=1e-12
        )
