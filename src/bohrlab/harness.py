"""Empirical radius finding, sharpness witnesses, and randomized campaigns.

This module ties the radius equations to the functional evaluators: it finds
the first radius at which a concrete function's margin turns positive,
reproduces the extremal constructions that push each functional above 1 just
past its sharp radius, and runs seeded random sweeps over disk self-maps
whose margins must stay nonpositive at the theorem radius.  Every witness
is a member of one family, the disk automorphisms phi_a, built in one place
and searched in one candidate loop that fails with one WitnessNotFoundError.

Every evaluation runs a kind's formula row, level and margin through
``functionals._row``: :func:`evaluate_grid` on the columns of one input,
the crossing scan on its margin column, and campaigns on a whole batch of
sampled functions at once; only the input checks and the reports are per
function.

Campaign functions come from ``count`` Schur parameters (8, plus the zeros a
gap kind inserts).  The numerator and denominator of their continued fraction
are polynomials of degree at most ``count - 1``, so the power-series division
that yields the Taylor coefficients is a banded recurrence: O(T * count)
work instead of O(T^2), with the same coefficients bit for bit.  Each step
of the recurrence is one ``np.vecdot`` over the band (numpy >= 2.0), whose
loop forms every complex product unfused and adds them in ascending degree,
as the dense convolution does; :func:`_batch_schur` says why no faster numpy
form may take its place.

Campaign coefficients are degree-major from the Schur recursion to the margins:
a batch of trials is a (T+1, trials) array, row k holding every trial's
coefficient of degree k.  The recursion and the division read and write
whole contiguous rows, the moduli keep that shape, and the formula helpers
index the degree axis first, so no step transposes a batch.

Campaigns run their trials through that pipeline (parameters with their gap
zeros, Taylor coefficients of g with the m leading zero rows of lam^m g,
moduli, formula rows, margins) in blocks of
``_BLOCK`` = 1,024 trials, written into preallocated margin and tail arrays.
A campaign draws each block's parameters as the block runs, so beyond the
O(trials) margins memory does not grow with the trial count.  Blocks start
at multiples of ``_BLOCK``, and a remainder shorter than ``_BLOCK`` joins the
last block: OpenBLAS takes other kernels for a matrix of one or a few trial
columns, and the merged tail keeps the margins bit-identical to one pass
over all trials.

A campaign sizes its truncation order T once, for the radius at which the
trial's g is evaluated: r^p for a lacunary trial lam^m g(lam^p), whose tails
are geometric in r^p, and r for every other kind.  Campaigns and
:func:`campaign_function` share it, so a replay rebuilds the same function.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .functionals import (
    EvaluationReport,
    FunctionalKind,
    NotSharpError,
    Status,
    _columns,
    _read,
    _row,
)
from .series import (
    Certificate,
    CoefficientSeries,
    LacunarySeries,
    _check_radius,
    default_truncation,
    mobius_series,
    schur_from_parameters,
)

__all__ = [
    "CampaignSummary",
    "NO_CROSSING",
    "NotSharpError",
    "WitnessNotFoundError",
    "WitnessReport",
    "empirical_radius",
    "evaluate_grid",
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
#: The limit kinds' witness candidates a = 1 - 2^-k, ascending up to the cap.
_ASCENT = tuple(itertools.takewhile(lambda a: a <= _WITNESS_CAP,
                                    (1.0 - 0.5**k for k in itertools.count(1))))
_EXCEED_BY = 1e-6  # cushion a witness's value must clear above 1
_PARAM_COUNT = 8
_SAMPLE_RADIUS = 0.98
_BLOCK = 1024  # campaign rows per pass through the margin pipeline
_TRIAL_LIMIT = 2**124  # 2 * _PARAM_COUNT * trial steps stay below the PCG64 period


class WitnessNotFoundError(RuntimeError):
    """No candidate's value cleared 1 + 1e-6; the proofs guarantee a witness exists."""


@dataclass(frozen=True)
class WitnessReport:
    """One sharpness witness: the extremal parameter and its recomputed value.

    ``exceeds_one`` is True on every witness returned, kept for the output
    contract; ROADMAP item 4 deletes it together with a benchmark change.
    """

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
    1 + max over trials of (margin - tail), so ``max_value <= 1`` states that
    no trial's margin exceeded its own certified tail error.  It equals the
    largest bare value only for kinds whose level is 1; for LEMMA_TAIL it is
    1 + max(LHS - RHS).
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
    """Sharp radius of the inequality the kind evaluates (NotSharpError if none).

    The root is isolated on the first call for each kind object and kept on it.
    """
    if kind.spec.radius is None:
        raise NotSharpError("the inequality holds at every radius below 1: no sharp radius")
    return kind.sharp_radius


def evaluate_kind(
    kind: FunctionalKind,
    f: CoefficientSeries | LacunarySeries,
    r: float,
    squared_shift: int = 0,
) -> EvaluationReport:
    """Evaluate one functional kind on a slice at radius ``r``.

    This and :func:`evaluate_grid` are the one public way to evaluate a
    kind.  A_PM takes the lacunary structure; the remaining kinds evaluate
    the expanded series.  The kind's formula row runs on the series' own
    arrays (see ``functionals._row``).  For LEMMA_TAIL the report's
    margin is taken against the bound's right side instead of 1, so
    margin <= 0 still means "holds".

    ``squared_shift`` >= 0 indexes D_NM's squared block at ``s + shift``,
    the asymmetric indexing of the norm-type statement (shift = m); a
    nonzero shift joins the report's parameters, and the other kinds' rows
    take none (TypeError).
    """
    return next(evaluate_grid(kind, f, [r], squared_shift))


def evaluate_grid(
    kind: FunctionalKind,
    f: CoefficientSeries | LacunarySeries,
    radii: list[float],
    squared_shift: int = 0,
) -> Iterator[EvaluationReport]:
    """The report of :func:`evaluate_kind` at each of ``radii``, lazily and in order.

    The formula row runs once per block of radii (``functionals._columns``),
    and each report equals ``evaluate_kind`` at its radius byte for byte.
    The checks run at the call, in this order: a negative ``squared_shift``
    (ValueError), the input as the kind reads it (``functionals._read``),
    then every radius (RadiusError).
    """
    if squared_shift < 0:
        raise ValueError("squared_shift must be >= 0")
    variant = {"squared_shift": squared_shift} if squared_shift else {}
    g = _read(kind, f)
    radii = list(map(_check_radius, radii))
    shape = f"lacunary(m={f.m}, p={f.p}, " if kind.spec.lacunary else "series("
    function = f"{shape}T={g.truncation_order}, cert={g.certificate.value})"
    certified = g.certificate is not Certificate.UNKNOWN
    params = {**kind.params(), **variant}
    tag = kind.tag.value
    return (EvaluationReport(v, t, margin, tag, dict(params), radius, function, certified, lv)
            for block, values, tails, levels, margins in _columns(kind, g, radii, **variant)
            for radius, v, t, lv, margin in zip(block, values, tails, levels, margins))


def empirical_radius(
    kind: FunctionalKind, f: CoefficientSeries | LacunarySeries
) -> float:
    """Smallest r in (0, 0.99] with a VIOLATED report, or the NO_CROSSING sentinel.

    Scans with step 1e-3 and bisects the first crossing down to width 1e-9.
    The scan reads the margin column of its radii k * 1e-3 block by block
    (``functionals._columns``), building no report, and stops at the first
    block holding a margin that is not <= 0 (a VIOLATED report); the
    bisection evaluates one radius at a time with :func:`evaluate_kind`.
    The input must carry a certificate; margins of uncertified functions
    say nothing about the inequalities.
    """
    g = _read(kind, f)
    if g.certificate is Certificate.UNKNOWN:
        raise ValueError("empirical radii require a certified disk self-map")
    f = f if kind.spec.lacunary else g  # expanded once, for the bisection
    scan = [k * _SCAN_STEP for k in range(1, round(NO_CROSSING / _SCAN_STEP) + 1)]
    margins = (mg for *_, block_margins in _columns(kind, g, scan) for mg in block_margins)
    for k, margin in enumerate(margins, start=1):
        if not margin <= 0.0:
            break
    else:
        return NO_CROSSING
    if k == 1:
        return _SCAN_STEP
    lo, hi = (k - 1) * _SCAN_STEP, k * _SCAN_STEP
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if evaluate_kind(kind, f, mid).status is Status.VIOLATED else (mid, hi)
    return 0.5 * (lo + hi)


def _family_parameter(m: int, p: int, radius: float, r: float) -> float:
    # The proof's a for lam^m phi_{-a}(lam^p): fixed by the sharp radius for
    # m >= 1, and a = 1/(2c) with c the tail factor at r for m = 0.
    if m >= 1:
        r0p = radius**p
        return (1.0 - r0p) / (2.0 * r0p)
    rp = r**p
    c = rp / (1.0 - rp)  # > 1/2 above the radius
    return 1.0 / (2.0 * c)


def _family_member(kind: FunctionalKind, family: int | None, a: float, T: int):
    """The family member at ``a`` to order ``T``: lam^m phi_{-a}(lam^p), p = ``family``,
    or phi_a(lam) = (a + lam)/(1 + a lam) itself where ``family`` is None (a limit kind)."""
    if family is None:
        return mobius_series(a, T)
    return LacunarySeries(kind.m, family, mobius_series(-a, T))


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
    return _family_member(kind, family, a, default_truncation(_SCAN_TRUNCATION_RADIUS))


def sharpness_witness(kind: FunctionalKind, r: float | None = None) -> WitnessReport:
    """Construct the proof's witness pushing the functional above 1 at ``r``.

    ``r`` defaults to the sharp radius + 0.01; either way it must pass the
    evaluation-radius rule (RadiusError) and lie above the sharp radius
    (ValueError).  One loop evaluates the family member at each candidate a
    in turn and returns the first whose value clears 1 + 1e-6: the lacunary
    and gap sums' one explicit optimizing parameter (a = 1/(2c), c the tail
    factor, at m = 0), or the composed-center and improved kinds' ascent
    ``_ASCENT``, whose witnesses exist only in the limit a -> 1.  Raises
    NotSharpError, before any root is isolated, where the proofs give no
    witness, and WitnessNotFoundError, naming the largest value reached, if
    no candidate clears it: an implementation bug, as the proofs guarantee one.
    """
    family = kind.spec.family(kind)
    radius = theorem_radius(kind)  # raises NotSharpError before any root
    r = _check_radius(radius + 0.01 if r is None else r)
    if r <= radius:
        raise ValueError(f"witnesses exist only above the sharp radius {radius!r}, got {r!r}")
    T = default_truncation(r)
    candidates = _ASCENT if family is None else [_family_parameter(kind.m, family, radius, r)]
    best = -np.inf
    for a in candidates:
        rep = evaluate_kind(kind, _family_member(kind, family, a, T), r)
        if rep.value > 1.0 + _EXCEED_BY:
            return WitnessReport(kind, r, a, rep.value, rep.tail_error, True)
        best = max(best, rep.value)
    raise WitnessNotFoundError(
        f"no witness for {kind.label()} at r={r!r}: the largest value reached is {best!r}")


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
    Raises RadiusError before sampling where ``r`` breaks the evaluation-radius
    rule, exactly where ``evaluate_kind`` does; a kind whose parameters break
    a hypothesis (I_M weights included) cannot be built.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r = _campaign_radius(kind, r)
    margins, tails = _batch_margins(kind, np.random.default_rng(seed), r, trials)
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
    """Rebuild the exact function a campaign trial evaluated (for auditing).

    Each trial row is one contiguous draw of ``2 * _PARAM_COUNT`` doubles, one
    PCG64 step each, so the stream is advanced past the earlier trials and
    only the requested row is sampled.
    """
    if not isinstance(trial, numbers.Integral):
        raise ValueError(f"trial must be an integer, got {trial!r}")
    trial = int(trial)
    # PCG64.advance wraps its step modulo 2**128, negative steps included.
    if not 0 <= trial < _TRIAL_LIMIT:
        raise ValueError(f"trial must lie in [0, 2**124), got {trial!r}")
    r = _campaign_radius(kind, r)
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(2 * _PARAM_COUNT * trial)
    params = _sample_parameters(rng, 1)
    gamma = [complex(c) for c in _shape_parameters(kind, params[0])]
    g = schur_from_parameters(gamma, _campaign_truncation(kind, r))
    if kind.spec.lacunary:
        return LacunarySeries(kind.m, kind.p, g)
    return LacunarySeries(kind.spec.support(kind)[0], 1, g).expand()  # lam^m g


# ---------------------------------------------------------------------------
# Campaign internals: sampled parameter rows, their batch Taylor coefficients,
# and the batch margins through the shared formula helpers.
# ---------------------------------------------------------------------------


def _sample_parameters(rng: np.random.Generator, trials: int) -> np.ndarray:
    # One contiguous draw per trial row, so trial k is identical no matter
    # how many trials the campaign runs in total or how many each call draws.
    uv = rng.random((trials, 2, _PARAM_COUNT))
    radii = _SAMPLE_RADIUS * np.sqrt(uv[:, 0, :])
    angles = 2.0 * np.pi * uv[:, 1, :]
    return radii * np.exp(1j * angles)


def _shape_parameters(kind: FunctionalKind, params: np.ndarray) -> np.ndarray:
    """Insert the N - m - 1 zero parameters that carve out the support gap (last axis)."""
    m, n = kind.spec.support(kind)
    gap = n - m - 1
    return np.insert(params, [1] * gap, 0j, axis=-1) if gap > 0 else params


def _campaign_radius(kind: FunctionalKind, r: float | None) -> float:
    """``r``, or the theorem radius if None, checked before anything is sampled.

    ``r`` goes through the evaluators' own radius rule, so a campaign runs at
    exactly the radii where ``evaluate_kind`` gives a verdict.
    """
    return theorem_radius(kind) if r is None else _check_radius(r)


def _campaign_truncation(kind: FunctionalKind, r: float) -> int:
    # A lacunary trial lam^m g(lam^p) weighs g by powers of r^p only.
    rho = r**kind.p if kind.spec.lacunary else r
    return default_truncation(min(rho + 0.05, 0.9))


def _batch_schur(params: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree-major Taylor coefficients (T+1, trials) of the Schur parameter rows.

    Each of the ``count`` recursion steps raises the degrees of the numerator
    A and the denominator B by at most one, so both are polynomials of degree
    at most ``count - 1``.  They are kept on ``width = min(count, T+1)``
    degree rows (one for an empty parameter row), and the division c = A/B runs
    as the banded recurrence c_k = A_k - sum_{j=1..d} B_j c_{k-j} with
    ``d = min(k, width-1)``: every dropped term is an exact zero, so the
    coefficients equal those of the dense O(T^2) convolution bit for bit.
    ``params`` is trial-major, (trials, count); A, B and the coefficients are
    degree-major, so every step of the recursion and of the division reads
    and writes whole contiguous rows of ``trials`` entries.

    Each step's sum is one ``np.vecdot`` over the degree axis.  ``vecdot``
    conjugates its first argument, so that argument is ``conj(B)``, taken
    once: negation is exact, and the two conjugations give B's products
    exactly.  Its loop forms each complex product without a fused
    multiply-add and adds the products in ascending j, which is what keeps
    the coefficients byte-identical to the dense convolution.  The reversed
    coefficient rows have a negative stride, which keeps ``vecdot`` on that
    loop rather than BLAS ``zdotc``.  ``(B * W).sum(axis=0)`` is faster but
    not byte-identical: numpy's complex multiply fuses the products there,
    moving coefficients by a few 1e-14, so it must not replace ``vecdot``.
    """
    trials, count = params.shape
    width = min(max(count, 1), T + 1)
    gammas = np.ascontiguousarray(params.T)
    A = np.zeros((width, trials), dtype=complex)
    B = np.zeros((width, trials), dtype=complex)
    B[0] = 1.0
    # A <- g B + z A and B <- B + conj(g) z A; B's constant row stays 1.
    for g in gammas[::-1]:
        new_A = g * B
        new_A[1:] += A[:-1]
        B[1:] += np.conj(g) * A[:-1]
        A = new_A
    coeffs = np.zeros((T + 1, trials), dtype=complex)
    coeffs[:width] = A
    Bc = np.conj(B)
    for k in range(1, T + 1):
        d = min(k, width - 1)
        coeffs[k] -= np.vecdot(Bc[1 : d + 1], coeffs[k - d : k][::-1], axis=0)
    return coeffs, 1.0 - np.abs(coeffs[0]) ** 2


def _batch_margins(
    kind: FunctionalKind,
    params: np.ndarray | np.random.Generator,
    r: float,
    trials: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Margins and tail certificates of every trial at radius ``r``.

    ``params`` holds the (trials, count) parameter rows, or is the generator
    that draws ``trials`` of them.  A generator draws each block's rows as
    the block runs: the rows equal those of one draw of all trials (see
    :func:`_sample_parameters`), and they are never all in memory at once.

    The trials run through the pipeline in blocks that start at multiples of
    ``_BLOCK``; a remainder shorter than ``_BLOCK`` joins the last block, so
    every block holds ``_BLOCK`` to ``2 * _BLOCK - 1`` trials and a batch
    under ``2 * _BLOCK`` trials is a single block.  The tail rule keeps the
    results bit-identical to one pass over all trials: OpenBLAS takes other
    kernels for a matrix of one or a few trial columns, so a short last
    block could round its trials differently.
    """
    T = _campaign_truncation(kind, r)
    m = kind.spec.support(kind)[0]
    draw = isinstance(params, np.random.Generator)
    if not draw:
        trials = params.shape[0]
    margins = np.empty(trials)
    tails = np.empty(trials)
    cuts = [k * _BLOCK for k in range(max(trials // _BLOCK, 1))] + [trials]
    for lo, hi in zip(cuts, cuts[1:]):
        rows = _sample_parameters(params, hi - lo) if draw else params[lo:hi]
        coeffs, bound = _batch_schur(_shape_parameters(kind, rows), T)
        if m:  # the trial is lam^m g: m leading zero rows; the bound stays g's
            coeffs = np.concatenate((np.zeros((m, hi - lo), dtype=complex), coeffs))
        _, tail, _, margin = _row(kind, coeffs, np.abs(coeffs), bound, r)
        margins[lo:hi] = margin
        tails[lo:hi] = tail
    return margins, tails
