"""Empirical radius finding, sharpness witnesses, and randomized campaigns.

This module ties the radius equations to the functional evaluators: it finds
the first radius at which a concrete function's margin turns positive,
reproduces the extremal constructions that push each functional above 1 just
past its sharp radius, and runs seeded random sweeps over disk self-maps
whose margins must stay nonpositive at the theorem radius.

Campaigns evaluate a whole batch of sampled functions at once, through the
same formula helpers of :mod:`bohrlab.functionals` that the scalar evaluators
call on a single coefficient row; only the input checks and the reports are
per function.

Campaign functions come from ``count`` Schur parameters (8, plus the zeros a
gap kind inserts).  The numerator and denominator of their continued fraction
are polynomials of degree at most ``count - 1``, so the power-series division
that yields the Taylor coefficients is a banded recurrence: O(T * count)
work instead of O(T^2), with the same coefficients bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import (
    EvaluationReport,
    FunctionalKind,
    FunctionalTag,
    eval_gap_sum,
    eval_improved_bohr,
    eval_lacunary_sum,
    eval_rogosinski,
    eval_rogosinski_center,
    lemma_tail_bound_check,
    _center_power,
    _certified,
    _describe,
    _gap_terms,
    _improved_terms,
    _lacunary_terms,
    _lemma_rhs,
    _lemma_sides,
    _report,
    _rogosinski_terms,
)
from .radii import RadiusEquation, maximal_root, unique_root
from .series import (
    Certificate,
    CoefficientSeries,
    LacunarySeries,
    TailWeight,
    default_truncation,
    lacunary_expand,
    mobius_minus_series,
    mobius_series,
    schur_from_parameters,
    weighted_tail,
)

__all__ = [
    "CampaignSummary",
    "NO_CROSSING",
    "WitnessNotFoundError",
    "WitnessReport",
    "empirical_radius",
    "evaluate_kind",
    "proof_extremal",
    "random_campaign",
    "sharpness_witness",
    "theorem_radius",
]

#: Sentinel returned when no margin crossing exists on (0, 0.99].
NO_CROSSING = 0.99

_SCAN_STEP = 1e-3
_SCAN_TRUNCATION_RADIUS = 0.93  # truncation sized for the scan's useful range
_WITNESS_CAP = 1.0 - 1e-6
_PARAM_COUNT = 8
_SAMPLE_RADIUS = 0.98


class WitnessNotFoundError(RuntimeError):
    """No witness below the parameter cap; the proofs guarantee one exists."""


@dataclass(frozen=True)
class WitnessReport:
    """One sharpness witness: the extremal parameter and its recomputed value."""

    kind: FunctionalKind
    r: float
    witness_param: float
    value: float
    tail_error: float
    exceeds_one: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind.label(),
            "r": self.r,
            "witness_param": self.witness_param,
            "value": self.value,
            "tail_error": self.tail_error,
            "exceeds_one": self.exceeds_one,
        }


@dataclass(frozen=True)
class CampaignSummary:
    """Outcome of a seeded random margin sweep at a fixed radius.

    ``max_margin`` includes each trial's tail certificate; ``max_value`` is
    the largest bare partial sum, so ``max_value <= 1`` states that no trial's
    margin exceeded its own certified tail error.
    """

    kind: FunctionalKind
    trials: int
    seed: int
    r: float
    max_margin: float
    argmax_trial: int
    max_value: float
    max_tail_error: float

    def to_json(self) -> dict:
        return {
            "kind": self.kind.label(),
            "trials": self.trials,
            "seed": self.seed,
            "r": self.r,
            "max_margin": self.max_margin,
            "argmax_trial": self.argmax_trial,
            "max_value": self.max_value,
            "max_tail_error": self.max_tail_error,
        }


def theorem_radius(kind: FunctionalKind) -> float:
    """Sharp radius of the inequality the kind evaluates."""
    t = kind.tag
    if t is FunctionalTag.A_PM:
        return maximal_root(RadiusEquation.refined_lacunary(kind.p, kind.m))
    if t is FunctionalTag.D_NM:
        return maximal_root(RadiusEquation.gap(kind.n, kind.m))
    if t is FunctionalTag.G_MPN:
        return unique_root(RadiusEquation.rogosinski(kind.n, kind.p_exp, kind.m))
    if t is FunctionalTag.H_PN:
        return unique_root(RadiusEquation.rogosinski_limit(kind.n, kind.p_exp))
    if t is FunctionalTag.I_M:
        return 1.0 / 3.0
    raise ValueError("the tail-bound check holds at every radius below 1")


def evaluate_kind(
    kind: FunctionalKind,
    f: CoefficientSeries | LacunarySeries,
    r: float,
) -> EvaluationReport:
    """Evaluate one functional kind on a slice at radius ``r``.

    A_PM takes the lacunary structure; the remaining kinds evaluate the
    expanded series.  For LEMMA_TAIL the report's margin is taken against the
    bound's right side instead of 1, so margin <= 0 still means "holds".
    """
    t = kind.tag
    if t is FunctionalTag.A_PM:
        if not isinstance(f, LacunarySeries):
            raise TypeError("A_PM needs the lacunary structure (m, p, g)")
        if (f.m, f.p) != (kind.m, kind.p):
            raise ValueError(
                f"kind {kind.label()} does not match the input's (m={f.m}, p={f.p})"
            )
        return eval_lacunary_sum(f, r)
    series = f.expand() if isinstance(f, LacunarySeries) else f
    if t is FunctionalTag.D_NM:
        return eval_gap_sum(series, kind.m, kind.n, r)
    if t is FunctionalTag.G_MPN:
        return eval_rogosinski(series, kind.m, kind.p_exp, kind.n, r)
    if t is FunctionalTag.H_PN:
        return eval_rogosinski_center(series, kind.p_exp, kind.n, r)
    if t is FunctionalTag.I_M:
        return eval_improved_bohr(series, kind.d, r)
    # LEMMA_TAIL: slack s = rhs - lhs; report lhs-style margin against rhs.
    slack = lemma_tail_bound_check(series, kind.n, r)
    rhs = _lemma_rhs(abs(series.coeffs[0]), kind.n, r)
    return _report(
        "LEMMA_TAIL",
        {"n": kind.n},
        r,
        rhs - slack,
        0.0,
        _describe(series),
        _certified(series),
        threshold=rhs,
    )


def _input_certificate(f: CoefficientSeries | LacunarySeries) -> Certificate:
    return f.g.certificate if isinstance(f, LacunarySeries) else f.certificate


def empirical_radius(
    kind: FunctionalKind, f: CoefficientSeries | LacunarySeries
) -> float:
    """Smallest r in (0, 0.99] with positive margin, or the NO_CROSSING sentinel.

    Scans with step 1e-3 and bisects the first crossing down to width 1e-9.
    The input must carry a certificate; margins of uncertified functions say
    nothing about the inequalities.
    """
    if _input_certificate(f) is Certificate.UNKNOWN:
        raise ValueError("empirical radii require a certified disk self-map")

    def margin(r: float) -> float:
        return evaluate_kind(kind, f, r).margin

    steps = round(NO_CROSSING / _SCAN_STEP)
    prev = _SCAN_STEP
    prev_margin = margin(prev)
    if prev_margin > 0.0:
        return prev
    for k in range(2, steps + 1):
        r = k * _SCAN_STEP
        cur = margin(r)
        if cur > 0.0:
            lo, hi = prev, r
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                if margin(mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        prev, prev_margin = r, cur
    return NO_CROSSING


def proof_extremal(kind: FunctionalKind) -> LacunarySeries:
    """The proof-optimal extremal family member whose crossing IS the radius.

    For the lacunary sum with m >= 1 the optimizing parameter is
    a = (1 - r0^p) / (2 r0^p) at the sharp radius r0; for the gap sum at
    N = m + 1, a = (1 - r0) / (2 r0).  Both closed forms increase in r and
    equal 1 exactly at r0, so the empirical crossing reproduces the radius.
    """
    r0 = theorem_radius(kind)
    T = default_truncation(_SCAN_TRUNCATION_RADIUS)
    if kind.tag is FunctionalTag.A_PM:
        if kind.m < 1:
            raise ValueError("the proof-optimal parameter degenerates at m = 0")
        rp = r0**kind.p
        a = (1.0 - rp) / (2.0 * rp)
        return LacunarySeries(kind.m, kind.p, mobius_minus_series(a, T))
    if kind.tag is FunctionalTag.D_NM:
        if kind.m < 1 or kind.n != kind.m + 1:
            raise ValueError("the gap-sum extremal lives at N = m + 1 with m >= 1")
        a = (1.0 - r0) / (2.0 * r0)
        return LacunarySeries(kind.m, 1, mobius_minus_series(a, T))
    raise ValueError(f"no proof-optimal extremal is defined for {kind.label()}")


def sharpness_witness(
    kind: FunctionalKind, r: float, *, exceed_by: float = 1e-6
) -> WitnessReport:
    """Construct the proof's witness pushing the functional above 1 at ``r``.

    The lacunary and gap sums use the explicit optimizing parameter (the
    m = 0 branches use a = 1/(2c) with c the relevant tail factor); the
    composed-center and improved kinds search the ascending schedule
    a = 1 - 2^-k, capped at 1 - 1e-6, because their witnesses only exist in
    the limit a -> 1.  Raises WitnessNotFoundError if the cap is exhausted,
    which signals an implementation bug: the proofs guarantee existence.
    """
    t = kind.tag
    radius = theorem_radius(kind)
    if r <= radius:
        raise ValueError(
            f"witnesses exist only above the sharp radius {radius!r}, got {r!r}"
        )
    T = default_truncation(r)

    if t is FunctionalTag.A_PM:
        if kind.m >= 1:
            r0p = radius**kind.p
            a = (1.0 - r0p) / (2.0 * r0p)
        else:
            rp = r**kind.p
            c = rp / (1.0 - rp)  # > 1/2 above the radius
            a = 1.0 / (2.0 * c)
        fam = LacunarySeries(kind.m, kind.p, mobius_minus_series(a, T))
        return _witness(kind, r, a, evaluate_kind(kind, fam, r), exceed_by)

    if t is FunctionalTag.D_NM:
        if kind.n != kind.m + 1:
            raise ValueError("gap-sum sharpness is established at N = m + 1")
        if kind.m >= 1:
            a = (1.0 - radius) / (2.0 * radius)
        else:
            c = r / (1.0 - r)
            a = 1.0 / (2.0 * c)
        fam = LacunarySeries(kind.m, 1, mobius_minus_series(a, T))
        return _witness(kind, r, a, evaluate_kind(kind, fam, r), exceed_by)

    # Limit-argument kinds: ascend a = 1 - 2^-k until the value clears 1.
    k = 1
    while True:
        a = 1.0 - 0.5**k
        if a > _WITNESS_CAP:
            raise WitnessNotFoundError(
                f"no witness for {kind.label()} at r={r!r} below the parameter cap"
            )
        rep = evaluate_kind(kind, mobius_series(a, T), r)
        if rep.value > 1.0 + exceed_by:
            return _witness(kind, r, a, rep, exceed_by)
        k += 1


def _witness(
    kind: FunctionalKind, r: float, a: float, rep: EvaluationReport, exceed_by: float
) -> WitnessReport:
    exceeds = bool(rep.value > 1.0 + exceed_by)
    if not exceeds:
        raise WitnessNotFoundError(
            f"the construction for {kind.label()} reached only {rep.value!r} at r={r!r}"
        )
    return WitnessReport(
        kind=kind,
        r=r,
        witness_param=float(a),
        value=rep.value,
        tail_error=rep.tail_error,
        exceeds_one=exceeds,
    )


def random_campaign(
    kind: FunctionalKind,
    trials: int,
    seed: int,
    r: float | None = None,
) -> CampaignSummary:
    """Seeded sweep of random disk self-maps; reports the worst margin.

    Functions are built from Schur parameters sampled uniformly on the disk
    of radius 0.98 (boundary parameters truncate the parameter sequence and
    are exercised by deterministic tests instead).  The evaluation radius
    defaults to the theorem radius of the kind.  Ties in the maximum margin
    resolve to the lowest trial index, so summaries are reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if r is None:
        r = theorem_radius(kind)
    rng = np.random.default_rng(seed)
    params = _sample_parameters(rng, trials)
    margins, tails = _batch_margins(kind, params, r)
    arg = int(np.argmax(margins))
    values = margins - tails + 1.0
    return CampaignSummary(
        kind=kind,
        trials=trials,
        seed=seed,
        r=r,
        max_margin=float(margins[arg]),
        argmax_trial=arg,
        max_value=float(values.max()),
        max_tail_error=float(tails.max()),
    )


def campaign_function(kind: FunctionalKind, seed: int, trial: int, r: float | None = None):
    """Rebuild the exact function a campaign trial evaluated (for auditing)."""
    if r is None:
        r = theorem_radius(kind)
    rng = np.random.default_rng(seed)
    params = _sample_parameters(rng, trial + 1)
    gamma = [complex(c) for c in _shape_parameters(kind, params[trial])]
    g = schur_from_parameters(gamma, _campaign_truncation(r))
    if kind.tag is FunctionalTag.A_PM:
        return LacunarySeries(kind.m, kind.p, g)
    if kind.tag is FunctionalTag.D_NM and kind.m > 0:
        return lacunary_expand(kind.m, 1, g)
    return g


# ---------------------------------------------------------------------------
# Campaign internals: sampled parameter rows, their batch Taylor coefficients,
# and the batch margins through the shared formula helpers.
# ---------------------------------------------------------------------------


def _sample_parameters(rng: np.random.Generator, trials: int) -> np.ndarray:
    # One contiguous draw per trial row, so trial k is identical no matter
    # how many trials the campaign runs in total.
    uv = rng.random((trials, 2, _PARAM_COUNT))
    radii = _SAMPLE_RADIUS * np.sqrt(uv[:, 0, :])
    angles = 2.0 * np.pi * uv[:, 1, :]
    return radii * np.exp(1j * angles)


def _shape_parameters(kind: FunctionalKind, params: np.ndarray) -> np.ndarray:
    """Insert the zero parameters that carve out the kind's support gap (last axis)."""
    gap = kind.n - kind.m - 1 if kind.tag is FunctionalTag.D_NM else 0
    return np.insert(params, [1] * gap, 0j, axis=-1) if gap > 0 else params


def _campaign_truncation(r: float) -> int:
    return default_truncation(min(r + 0.05, 0.9))


def _batch_schur(params: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients (trials, T+1) of the sampled Schur parameter rows.

    Each of the ``count`` recursion steps raises the degrees of the numerator
    A and the denominator B by at most one, so both are polynomials of degree
    at most ``count - 1``.  They are kept on ``width = min(count, T+1)``
    columns (one for an empty parameter row), and the division c = A/B runs
    as the banded recurrence c_k = A_k - sum_{j=1..d} B_j c_{k-j} with
    ``d = min(k, width-1)``: every dropped term is an exact zero, so the
    coefficients equal those of the dense O(T^2) convolution bit for bit.
    """
    trials, count = params.shape
    width = min(max(count, 1), T + 1)
    A = np.zeros((trials, width), dtype=complex)
    B = np.zeros((trials, width), dtype=complex)
    B[:, 0] = 1.0
    for k in range(count - 1, -1, -1):
        g = params[:, k : k + 1]
        shifted = np.zeros_like(A)
        shifted[:, 1:] = A[:, :-1]
        A = g * B + shifted
        B = B + np.conj(g) * shifted
    coeffs = np.zeros((trials, T + 1), dtype=complex)
    coeffs[:, :width] = A
    for k in range(1, T + 1):
        d = min(k, width - 1)
        conv = np.einsum("tj,tj->t", B[:, 1 : d + 1], coeffs[:, k - d : k][:, ::-1])
        coeffs[:, k] -= conv
    return coeffs, 1.0 - np.abs(coeffs[:, 0]) ** 2


def _batch_margins(
    kind: FunctionalKind, params: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Margins and tail certificates of every sampled row at radius ``r``."""
    t = kind.tag
    T = _campaign_truncation(r)
    coeffs, bound = _batch_schur(_shape_parameters(kind, params), T)
    mods = np.abs(coeffs)

    if t is FunctionalTag.A_PM:
        value, tail = _lacunary_terms(mods, bound, kind.p, kind.m, r)
    elif t is FunctionalTag.D_NM:
        # The trial function is lam^m g(lam): m leading zero coefficients.
        shifted = np.pad(mods, ((0, 0), (kind.m, 0)))
        value, tail = _gap_terms(shifted, bound, kind.m, kind.n, r)
    elif t is FunctionalTag.G_MPN:
        rho = r**kind.m  # the monomial Schwarz slice maps r to r^m
        x = np.abs(coeffs @ (rho ** np.arange(T + 1, dtype=float)).astype(complex))
        df = weighted_tail(bound, rho, T, TailWeight.LINEAR)
        head, head_err = _center_power(x, df, kind.p_exp)
        value, tail = _rogosinski_terms(mods, bound, kind.n, r, head, head_err)
    elif t is FunctionalTag.H_PN:
        head, head_err = _center_power(mods[:, 0], 0.0, kind.p_exp)
        value, tail = _rogosinski_terms(mods, bound, kind.n, r, head, head_err)
    elif t is FunctionalTag.I_M:
        value, tail = _improved_terms(mods, bound, kind.d, r)
    else:  # LEMMA_TAIL: the margin is taken against the bound's right side
        lhs, rhs = _lemma_sides(mods, bound, kind.n, r)
        return lhs - rhs, np.zeros_like(lhs)
    return value + tail - 1.0, tail
