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
work instead of O(T^2), with the same coefficients bit for bit.  The division
runs degree-major, on a (T+1, trials) array whose every step reads a few
contiguous rows, and hands back a C-contiguous (trials, T+1) copy.

A campaign sizes its truncation order T once, for the radius at which the
trial's g is evaluated: r^p for a lacunary trial lam^m g(lam^p), whose tails
are geometric in r^p, and r for every other kind.  Campaigns and
:func:`campaign_function` share it, so a replay rebuilds the same function.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .functionals import (
    EvaluationReport,
    FunctionalKind,
    NotSharpError,
    zero_schwarz_slice,
)
from .series import (
    Certificate,
    CoefficientSeries,
    LacunarySeries,
    default_truncation,
    mobius_minus_series,
    mobius_series,
    schur_from_parameters,
)

# Bound here by name too: bench/tracer.py wraps every binding of a traced
# function, and bench/test_bench.py checks these two.
from .functionals import eval_lacunary_sum  # noqa: F401
from .radii import maximal_root  # noqa: F401

__all__ = [
    "CampaignSummary",
    "NO_CROSSING",
    "NotSharpError",
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
        return {**asdict(self), "kind": self.kind.label()}


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
        return {**asdict(self), "kind": self.kind.label()}


def theorem_radius(kind: FunctionalKind) -> float:
    """Sharp radius of the inequality the kind evaluates (NotSharpError if none)."""
    if kind.spec.radius is None:
        raise NotSharpError("the inequality holds at every radius below 1: no sharp radius")
    return kind.spec.radius(kind)


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
    spec = kind.spec
    if spec.lacunary:
        if not isinstance(f, LacunarySeries):
            raise TypeError(f"{kind.tag.value} needs the lacunary structure (m, p, g)")
        if (f.m, f.p) != (kind.m, kind.p):
            raise ValueError(
                f"kind {kind.label()} does not match the input's (m={f.m}, p={f.p})"
            )
    elif isinstance(f, LacunarySeries):
        f = f.expand()
    return spec.evaluate(kind, f, r)


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


def _family_parameter(m: int, p: int, radius: float, r: float) -> float:
    # The proof's a for lam^m phi_a(lam^p): fixed by the sharp radius for
    # m >= 1, and a = 1/(2c) with c the tail factor at r for m = 0.
    if m >= 1:
        r0p = radius**p
        return (1.0 - r0p) / (2.0 * r0p)
    rp = r**p
    c = rp / (1.0 - rp)  # > 1/2 above the radius
    return 1.0 / (2.0 * c)


def proof_extremal(kind: FunctionalKind) -> LacunarySeries:
    """The proof-optimal extremal family member whose crossing IS the radius.

    For the lacunary sum with m >= 1 the optimizing parameter is
    a = (1 - r0^p) / (2 r0^p) at the sharp radius r0; for the gap sum at
    N = m + 1, a = (1 - r0) / (2 r0).  Both closed forms increase in r and
    equal 1 exactly at r0, so the empirical crossing reproduces the radius.
    """
    family = kind.spec.family(kind)
    if family is None or kind.m < 1:  # at m = 0 the proof-optimal parameter degenerates
        raise ValueError(f"no proof-optimal extremal is defined for {kind.label()}")
    r0 = theorem_radius(kind)
    a = _family_parameter(kind.m, family, r0, r0)
    T = default_truncation(_SCAN_TRUNCATION_RADIUS)
    return LacunarySeries(kind.m, family, mobius_minus_series(a, T))


def sharpness_witness(
    kind: FunctionalKind, r: float | None = None, *, exceed_by: float = 1e-6
) -> WitnessReport:
    """Construct the proof's witness pushing the functional above 1 at ``r``.

    ``r`` defaults to the sharp radius + 0.01.  The lacunary and gap sums use
    the explicit optimizing parameter (the m = 0 branches use a = 1/(2c) with
    c the relevant tail factor); the composed-center and improved kinds search
    the ascending schedule a = 1 - 2^-k, capped at 1 - 1e-6, because their
    witnesses only exist in the limit a -> 1.  Raises NotSharpError, before
    any root is isolated, where the proofs give no witness, and
    WitnessNotFoundError if the cap is exhausted, which signals an
    implementation bug: the proofs guarantee existence.
    """
    family = kind.spec.family(kind)
    radius = theorem_radius(kind)  # raises NotSharpError before any root
    if r is None:
        r = radius + 0.01
    if r <= radius:
        raise ValueError(
            f"witnesses exist only above the sharp radius {radius!r}, got {r!r}"
        )
    T = default_truncation(r)

    if family is not None:
        a = _family_parameter(kind.m, family, radius, r)
        fam = LacunarySeries(kind.m, family, mobius_minus_series(a, T))
        return _witness(kind, r, a, evaluate_kind(kind, fam, r), exceed_by)

    # Limit-argument kinds: ascend a = 1 - 2^-k until the value clears 1.
    for k in itertools.count(1):
        a = 1.0 - 0.5**k
        if a > _WITNESS_CAP:
            raise WitnessNotFoundError(
                f"no witness for {kind.label()} at r={r!r} below the parameter cap"
            )
        rep = evaluate_kind(kind, mobius_series(a, T), r)
        if rep.value > 1.0 + exceed_by:
            return _witness(kind, r, a, rep, exceed_by)


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
    Raises, before sampling, whatever the kind's scalar evaluator raises at
    ``r`` (RadiusError outside its radius range).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r = _campaign_radius(kind, r)
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
    r = _campaign_radius(kind, r)
    rng = np.random.default_rng(seed)
    params = _sample_parameters(rng, trial + 1)
    gamma = [complex(c) for c in _shape_parameters(kind, params[trial])]
    g = schur_from_parameters(gamma, _campaign_truncation(kind, r))
    return kind.spec.wrap(kind, g)


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
    gap = kind.spec.gap(kind)
    return np.insert(params, [1] * gap, 0j, axis=-1) if gap > 0 else params


def _campaign_radius(kind: FunctionalKind, r: float | None) -> float:
    """``r``, or the theorem radius if None, checked before anything is sampled.

    The zero map goes through the kind's scalar evaluator at ``r``, so a
    campaign runs at exactly the radii where ``evaluate_kind`` gives a verdict.
    """
    if r is None:
        return theorem_radius(kind)
    evaluate_kind(kind, kind.spec.wrap(kind, zero_schwarz_slice()), r)
    return r


def _campaign_truncation(kind: FunctionalKind, r: float) -> int:
    # A lacunary trial lam^m g(lam^p) weighs g by powers of r^p only.
    rho = r**kind.p if kind.spec.lacunary else r
    return default_truncation(min(rho + 0.05, 0.9))


def _batch_schur(params: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients (trials, T+1) of the sampled Schur parameter rows.

    Each of the ``count`` recursion steps raises the degrees of the numerator
    A and the denominator B by at most one, so both are polynomials of degree
    at most ``count - 1``.  They are kept on ``width = min(count, T+1)``
    columns (one for an empty parameter row), and the division c = A/B runs
    as the banded recurrence c_k = A_k - sum_{j=1..d} B_j c_{k-j} with
    ``d = min(k, width-1)``: every dropped term is an exact zero, so the
    coefficients equal those of the dense O(T^2) convolution bit for bit.
    The recursion for A and B stays trial-major; only the division runs on
    transposed, degree-major arrays, whose sums keep the same order.
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
    # Degree-major division: each step reads d contiguous rows of ``ct``.
    Bt = np.ascontiguousarray(B.T)
    ct = np.zeros((T + 1, trials), dtype=complex)
    ct[:width] = A.T
    for k in range(1, T + 1):
        d = min(k, width - 1)
        ct[k] -= np.einsum("jt,jt->t", Bt[1 : d + 1], ct[k - d : k][::-1])
    # Trial-major again, so downstream products sum in the same order.
    coeffs = np.ascontiguousarray(ct.T)
    return coeffs, 1.0 - np.abs(coeffs[:, 0]) ** 2


def _batch_margins(
    kind: FunctionalKind, params: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Margins and tail certificates of every sampled row at radius ``r``."""
    T = _campaign_truncation(kind, r)
    coeffs, bound = _batch_schur(_shape_parameters(kind, params), T)
    value, tail = kind.spec.batch(kind, coeffs, np.abs(coeffs), bound, r)
    return value + tail - kind.spec.level, tail
