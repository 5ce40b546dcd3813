"""Refined Bohr-type coefficient sums with truncation-error certificates.

Every evaluator consumes a slice series (coefficient moduli along one
direction), sums the printed formula up to the truncation order, and adds a
certified bound for the dropped terms.  Reports carry ``margin = value +
tail_error - 1`` so a nonpositive margin certifies the inequality at that
radius: the tail always lands on the unsafe side.

Each formula is written once, as a private helper over degree-major moduli
of shape ``(T+1, ...)`` with a coefficient bound per function (a float or an
array): it indexes the degree axis first and returns ``(value, tail)``.  The
public evaluators check their inputs and pass one 1-D series; randomized
campaigns pass a (T+1, trials) batch, one column per trial, through the same
helpers.

Every power table ``x ** exponents`` goes through one helper,
:func:`_powers`, which stops calling ``pow`` where the powers underflow to
zero in double precision and fills the rest with exact zeros; the tables,
and so every sum, are unchanged bit for bit.

The gap-sum evaluator also accepts an index shift for its squared block.
One of the norm-type statements indexes that block at ``s + m`` while the
linear block runs over ``s >= N``; the shift reproduces that asymmetric
indexing verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .radii import RadiusEquation, _check_int, _check_p_exp, maximal_root
from .series import (
    Certificate,
    CoefficientSeries,
    LacunarySeries,
    MAX_EVAL_RADIUS,
    RadiusError,
    TailWeight,
    lacunary_expand,
    tail_bound,
    weighted_tail,
)

__all__ = [
    "ConstraintResult",
    "ConstraintViolation",
    "EvaluationReport",
    "FunctionalKind",
    "FunctionalTag",
    "KINDS",
    "KindSpec",
    "NotSharpError",
    "SupportError",
    "c_constant",
    "constraint_check",
    "eval_improved_bohr",
    "eval_gap_sum",
    "eval_lacunary_sum",
    "eval_rogosinski",
    "eval_rogosinski_center",
    "lemma_tail_bound_check",
    "report_to_json",
    "s_star",
    "zero_schwarz_slice",
    "monomial_schwarz_slice",
]

_SUPPORT_TOL = 1e-12


class SupportError(ValueError):
    """A slice carries coefficients outside the support the formula assumes."""


class ConstraintViolation(ValueError):
    """The polynomial-weight constraint fails, so the evaluation is undefined."""


class NotSharpError(ValueError):
    """The kind has no sharp radius, or the proofs give no witness for its parameters."""


@dataclass(frozen=True)
class EvaluationReport:
    """Value, certified truncation error, and margin of one evaluation.

    ``margin`` is ``value + tail_error`` minus the comparison level (1 unless
    the inputs record another), computed on the unsafe side; ``inputs`` keeps
    provenance: functional kind, parameters, radius, input descriptor, and
    whether the input's class certificate makes the verdict meaningful.
    """

    value: float
    tail_error: float
    margin: float
    inputs: Mapping[str, object]


class FunctionalTag(str, Enum):
    A_PM = "A_PM"            # refined lacunary sum
    D_NM = "D_NM"            # refined gap sum
    G_MPN = "G_MPN"          # composed center term + tail sums
    H_PN = "H_PN"            # center term at the origin + tail sums
    I_M = "I_M"              # refined sum plus polynomial coefficient energy
    LEMMA_TAIL = "LEMMA_TAIL"  # tail-bound slack check


@dataclass(frozen=True)
class FunctionalKind:
    """Tagged choice of evaluator plus its parameters, checked by its row of KINDS."""

    tag: FunctionalTag
    p: int | None = None
    m: int | None = None
    n: int | None = None
    p_exp: float | None = None
    d: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag", FunctionalTag(self.tag))
        if self.p_exp is not None:
            object.__setattr__(self, "p_exp", float(self.p_exp))
        if self.d is not None:
            object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        self.spec.check(self)

    @property
    def spec(self) -> "KindSpec":
        return KINDS[self.tag]

    @cached_property
    def sharp_radius(self) -> float:
        """``spec.radius(self)``, isolated on first use and kept by this kind.

        Stored in the instance __dict__, not as a field, so equality, hashing
        and repr of the frozen dataclass are unchanged.
        """
        return self.spec.radius(self)

    # -- constructors ----------------------------------------------------
    @classmethod
    def lacunary(cls, p: int, m: int) -> "FunctionalKind":
        return cls(FunctionalTag.A_PM, p=p, m=m)

    @classmethod
    def gap(cls, n: int, m: int) -> "FunctionalKind":
        return cls(FunctionalTag.D_NM, n=n, m=m)

    @classmethod
    def rogosinski(cls, m: int, p_exp: float, n: int) -> "FunctionalKind":
        return cls(FunctionalTag.G_MPN, m=m, p_exp=p_exp, n=n)

    @classmethod
    def rogosinski_center(cls, p_exp: float, n: int) -> "FunctionalKind":
        return cls(FunctionalTag.H_PN, p_exp=p_exp, n=n)

    @classmethod
    def improved(cls, d: Sequence[float]) -> "FunctionalKind":
        return cls(FunctionalTag.I_M, d=tuple(d))

    @classmethod
    def tail_lemma(cls, n: int) -> "FunctionalKind":
        return cls(FunctionalTag.LEMMA_TAIL, n=n)

    def params(self) -> dict:
        out: dict[str, object] = {}
        for name in ("p", "m", "n", "p_exp"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        if self.d is not None:
            out["d"] = list(self.d)
        return out

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.tag.value}({inner})"


def _check_weights(d: Sequence[float] | None) -> tuple[float, ...]:
    if d is None:
        raise ValueError("the weight sequence d is required")
    d = tuple(float(x) for x in d)
    if not all(math.isfinite(x) and x >= 0.0 for x in d):
        raise ValueError(f"weights d_i must be finite and nonnegative, got {list(d)!r}")
    return d


def _check_radius(r: float, *, allow_zero: bool = False) -> float:
    r = float(r)
    lo_ok = r >= 0.0 if allow_zero else r > 0.0
    if not lo_ok or r >= MAX_EVAL_RADIUS:
        raise RadiusError(
            f"radius {r!r} outside the supported range "
            f"{'[0' if allow_zero else '(0'}, {MAX_EVAL_RADIUS})"
        )
    return r


def _certified(series: CoefficientSeries) -> bool:
    return series.certificate is not Certificate.UNKNOWN


def _describe(obj: CoefficientSeries | LacunarySeries) -> str:
    if isinstance(obj, LacunarySeries):
        return (
            f"lacunary(m={obj.m}, p={obj.p}, T={obj.g.truncation_order}, "
            f"cert={obj.g.certificate.value})"
        )
    return f"series(T={obj.truncation_order}, cert={obj.certificate.value})"


def _report(
    kind: str,
    params: dict,
    r: float,
    value: float,
    tail: float,
    descriptor: str,
    certified: bool,
    threshold: float = 1.0,
) -> EvaluationReport:
    value, tail, threshold = float(value), float(tail), float(threshold)
    inputs = {"kind": kind, "params": params, "r": r, "function": descriptor,
              "certified": certified}
    if threshold != 1.0:
        inputs["threshold"] = threshold
    return EvaluationReport(
        value=value,
        tail_error=tail,
        margin=value + tail - threshold,
        inputs=inputs,
    )


#: Below 2**-1100 a power is 0.0 in double (the least subnormal is 2**-1074).
_UNDERFLOW_LOG2 = -1100.0


def _powers(x: float, exponents: np.ndarray) -> np.ndarray:
    """``x ** exponents`` for ascending exponents >= 0, without computing zeros.

    For 0 < x < 1, ``pow`` runs only while ``e * log2(x) >= -1100``; every
    later entry is exactly 0.0, as ``pow`` would return it (after a slow
    path on underflow).  Other bases take the plain power.
    """
    if not 0.0 < x < 1.0:
        return x**exponents
    out = np.zeros(exponents.shape)
    k = np.searchsorted(exponents, _UNDERFLOW_LOG2 / math.log2(x), side="right")
    np.power(x, exponents[:k], out=out[:k])
    return out


# ---------------------------------------------------------------------------
# The formulas.  ``mods`` holds moduli of shape (T+1, ...), degree first, and
# ``bound`` the per-function bound on every dropped coefficient; each helper
# indexes the degree axis and returns (value, tail).
# ---------------------------------------------------------------------------


def _lacunary_terms(mods, bound, p: int, m: int, r: float):
    """Refined sum of lam^m g(lam^p) from the moduli of ``g``; tails geometric in r^p."""
    T = mods.shape[0] - 1
    rp = r**p
    rm = r**m
    powers = _powers(rp, np.arange(T + 1))
    linear = rm * (powers @ mods)
    lin_tail = rm * weighted_tail(bound, rp, T, TailWeight.LINEAR)
    sq = rm * rm * (powers[1:] ** 2 @ mods[1:] ** 2)
    sq_tail = rm * rm * weighted_tail(bound, rp, T, TailWeight.SQUARED)
    # Where r^m underflows the squared sum is empty and the bracket infinite.
    if not (sq + sq_tail > 0.0).any():
        return linear, lin_tail
    bracket = 1.0 / (rm * (1.0 + mods[0])) + r ** (p - m) / (1.0 - rp)
    return linear + bracket * sq, lin_tail + bracket * sq_tail


def _gap_terms(mods, bound, m: int, n: int, r: float, squared_shift: int = 0):
    """Refined sum over the support {m} | {s >= N}; see :func:`eval_gap_sum`."""
    T = mods.shape[0] - 1
    pm = (mods[m] if m <= T else 0.0) * r**m
    linear = pm + _powers(r, np.arange(n, T + 1, dtype=float)) @ mods[n:]
    lin_tail = weighted_tail(bound, r, T, TailWeight.LINEAR)
    start = n + squared_shift
    sq = _powers(r, 2.0 * np.arange(start, T + 1, dtype=float)) @ mods[start:] ** 2
    sq_tail = weighted_tail(bound, r, max(T, start - 1), TailWeight.SQUARED)
    # The bracket divides by r^m + |P_m| and by r^(m-1).  Where either
    # overflows, every r^(2s) with s >= start > m underflows: the sum is
    # empty (as at r = 0) and the bracket is never formed.
    if not (sq + sq_tail > 0.0).any():
        return linear, lin_tail
    bracket = 1.0 / (r**m + pm) + r ** (1 - m) / (1.0 - r)
    return linear + bracket * sq, lin_tail + bracket * sq_tail


def _rogosinski_terms(mods, bound, n: int, r: float, head, head_err):
    """``head`` plus the tail sums of :func:`eval_rogosinski`, t = floor((N-1)/2)."""
    T = mods.shape[0] - 1
    linear = _powers(r, np.arange(n, T + 1, dtype=float)) @ mods[n:]
    lin_tail = weighted_tail(bound, r, T, TailWeight.LINEAR)
    t = (n - 1) // 2
    middle = 0.0
    mid_tail = 0.0
    if t >= 1:
        middle = (mods[1 : min(t, T) + 1] ** 2).sum(axis=0) * r**n / (1.0 - r)
        if t > T:
            mid_tail = (t - T) * bound * bound * r**n / (1.0 - r)
    sq = _powers(r, 2.0 * np.arange(t + 1, T + 1, dtype=float)) @ mods[t + 1 :] ** 2
    sq_tail = weighted_tail(bound, r, T, TailWeight.SQUARED)
    bracket = 1.0 / (1.0 + mods[0]) + r / (1.0 - r)
    value = head + linear + middle + bracket * sq
    tail = head_err + lin_tail + mid_tail + bracket * sq_tail
    return value, tail


def _center_power(x, df, p_exp: float):
    """``x^p`` and the certified increment ``(x + df)^p - x^p`` (p is monotone)."""
    head = x**p_exp
    return head, (x + df) ** p_exp - head


def _energy(mods, bound, r: float):
    """Weighted coefficient energy ``sum_s s |P_s|^2`` and its S_STAR tail."""
    T = mods.shape[0] - 1
    s = np.arange(1, T + 1, dtype=float)
    weights = s.reshape(s.shape + (1,) * (mods.ndim - 1))  # s down the degree axis
    head = _powers(r, 2.0 * s) @ (weights * mods[1:] ** 2)
    return head, weighted_tail(bound, r, T, TailWeight.S_STAR)


def _improved_terms(mods, bound, d: Sequence[float], r: float):
    """Refined sum at m = 0, N = 1 plus ``G(S*) = sum_i d_i S*^i``."""
    value, tail = _gap_terms(mods, bound, 0, 1, r)
    energy, energy_tail = _energy(mods, bound, r)
    g_val = 0.0
    g_err = 0.0
    for i, weight in enumerate(d, start=1):
        if weight == 0.0:
            continue
        g_val += weight * energy**i
        g_err += weight * ((energy + energy_tail) ** i - energy**i)
    return value + g_val, tail + g_err


def _lemma_rhs(c0, n: int, r: float):
    return (1.0 - c0**2) * r**n / (1.0 - r)


def _lemma_sides(mods, bound, n: int, r: float):
    """The refined tail bound's LHS with its tail certificates, and its RHS."""
    value, tail = _rogosinski_terms(mods, bound, n, r, 0.0, 0.0)
    return value + tail, _lemma_rhs(mods[0], n, r)


# ---------------------------------------------------------------------------
# Public evaluators: input checks, one row, a report.
# ---------------------------------------------------------------------------


def eval_lacunary_sum(f: LacunarySeries, r: float) -> EvaluationReport:
    """Refined sum for a slice supported on ``{s*p + m}``.

    value = sum_s |g_s| r^(sp+m)
          + (1/(r^m + |g_0| r^m) + r^(p-m)/(1-r^p)) * sum_{s>=1} |g_s|^2 r^(2(sp+m))

    evaluated with lacunary-aware tails (geometric in r^p).
    """
    m, p, g = f.m, f.p, f.g
    if not 0 <= m <= p:
        raise ValueError("the lacunary sum requires 0 <= m <= p")
    r = _check_radius(r)
    value, tail = _lacunary_terms(g.moduli_array, g.coefficient_bound, p, m, r)
    return _report("A_PM", {"p": p, "m": m}, r, value, tail, _describe(f), _certified(g))


def eval_gap_sum(
    f: CoefficientSeries,
    m: int,
    n: int,
    r: float,
    squared_shift: int = 0,
) -> EvaluationReport:
    """Refined sum for a slice supported on ``{m} union {s >= N}``.

    value = |P_m| + sum_{s>=N} |P_s|
          + (1/(r^m + |P_m|) + r^(1-m)/(1-r)) * sum_{s>=N} |P_{s+shift}|^2

    with |P_s| = |c_s| r^s.  ``squared_shift`` reproduces the asymmetric
    squared-block indexing of the norm-type statement (shift = m); the
    default 0 is the plain refined gap sum.  At r = 0 every series term
    vanishes and the base term alone is returned; the bracket is never
    formed when its sum is empty, so no division occurs.
    """
    if m < 0 or n < m + 1:
        raise ValueError("the gap sum requires m >= 0 and N >= m + 1")
    if squared_shift < 0:
        raise ValueError("squared_shift must be >= 0")
    r = _check_radius(r, allow_zero=True)
    mods = f.moduli_array
    for s in range(min(n, mods.size)):
        if s != m and mods[s] > _SUPPORT_TOL:
            raise SupportError(
                f"coefficient c_{s} = {mods[s]!r} violates the support "
                f"{{{m}}} | {{s >= {n}}}"
            )
    value, tail = _gap_terms(mods, f.coefficient_bound, m, n, r, squared_shift)
    params: dict[str, object] = {"n": n, "m": m}
    if squared_shift:
        params["squared_shift"] = squared_shift
    return _report("D_NM", params, r, value, tail, _describe(f), _certified(f))


def zero_schwarz_slice() -> CoefficientSeries:
    """The zero map: a Schwarz slice of every order (one shared, immutable series)."""
    return _ZERO_SLICE


_ZERO_SLICE = CoefficientSeries((0j,), 0.0, Certificate.SCHUR_EXACT)


def monomial_schwarz_slice(order: int, phase: complex = 1.0 + 0j) -> CoefficientSeries:
    """``lam -> phase * lam^order`` with |phase| = 1; the proof's slice choice."""
    if order < 1:
        raise ValueError("a Schwarz slice vanishes at 0, so order >= 1")
    if abs(abs(phase) - 1.0) > 1e-12:
        raise ValueError("phase must be unimodular")
    coeffs = (0j,) * order + (complex(phase),)
    return CoefficientSeries(coeffs, 0.0, Certificate.SCHUR_EXACT)


@lru_cache(maxsize=64)
def _default_schwarz_slice(order: int) -> CoefficientSeries:
    """``lam -> lam^order``, built once per order and shared (series are immutable)."""
    return monomial_schwarz_slice(order)


def _check_schwarz_slice(w: CoefficientSeries, order: int) -> None:
    if w.certificate is Certificate.UNKNOWN:
        raise ValueError("the inner map must carry a disk-self-map certificate")
    for s in range(min(order, w.truncation_order + 1)):
        if abs(w.coeffs[s]) > _SUPPORT_TOL:
            raise ValueError(
                f"inner map has a nonzero coefficient at index {s} < order {order}"
            )
    # Coefficients beyond the stored ones must also vanish below the order.
    if w.truncation_order + 1 < order and w.coefficient_bound > 0.0:
        raise ValueError("inner map truncation too short to certify its vanishing order")


def _composed_center(
    f: CoefficientSeries, w: CoefficientSeries, p_exp: float, r: float
) -> tuple[float, float]:
    """|f(w(r))|^p_exp with a certified upper increment.

    w(r) is a partial sum with LINEAR tail; the error transports through f
    with the growth bound |f'| <= 1/(1 - rho)^2 on |lam| <= rho < 1, and the
    exponent is applied monotonically, so (x + err)^p - x^p certifies it.
    """
    zeta = w(r)
    dw = tail_bound(w, r, TailWeight.LINEAR)
    zmag = abs(zeta)
    if zmag >= 1.0:
        raise RadiusError("inner map escaped the disk; certificate violated")
    # At zeta = 0 (H_PN) |f(0)| = |c_0| comes from the moduli, as on the
    # batch path; Python's abs may differ from np.abs in the last bit.
    x = float(f.moduli_array[0]) if zeta == 0 else abs(f(zeta))
    df = tail_bound(f, zmag, TailWeight.LINEAR)
    if dw > 0.0:
        df += dw / (1.0 - min(zmag + dw, MAX_EVAL_RADIUS)) ** 2
    return _center_power(x, df, p_exp)


def _rogosinski_core(
    f: CoefficientSeries,
    p_exp: float,
    n: int,
    r: float,
    w: CoefficientSeries,
    kind: str,
    params: dict,
) -> EvaluationReport:
    _check_p_exp(p_exp)
    if n < 1:
        raise ValueError("N must be >= 1")
    r = _check_radius(r)
    head, head_err = _composed_center(f, w, p_exp, r)
    value, tail = _rogosinski_terms(f.moduli_array, f.coefficient_bound, n, r, head, head_err)
    return _report(kind, params, r, value, tail, _describe(f), _certified(f))


def eval_rogosinski(
    f: CoefficientSeries,
    schwarz_order: int,
    p_exp: float,
    n: int,
    r: float,
    w: CoefficientSeries | None = None,
) -> EvaluationReport:
    """Composed center term plus tail sums, with t = floor((N-1)/2):

    value = |f(w(r))|^p + sum_{s>=N} |P_s|
          + sgn(t) sum_{s=1..t} |P_s|^2 r^(N-2s)/(1-r)
          + (1/(1+|f(0)|) + r/(1-r)) sum_{s>t} |P_s|^2

    ``w`` is a certified slice of an order-``schwarz_order`` Schwarz mapping
    (so |w(lam)| <= |lam|^order); the default is the monomial lam^order.
    """
    if schwarz_order < 1:
        raise ValueError("the Schwarz order must be >= 1")
    if w is None:
        w = _default_schwarz_slice(schwarz_order)
    else:
        _check_schwarz_slice(w, schwarz_order)
    params = {"m": schwarz_order, "p_exp": p_exp, "n": n}
    return _rogosinski_core(f, p_exp, n, r, w, "G_MPN", params)


def eval_rogosinski_center(
    f: CoefficientSeries, p_exp: float, n: int, r: float
) -> EvaluationReport:
    """The order-infinity limit: the composed center collapses to |f(0)|^p."""
    params = {"p_exp": p_exp, "n": n}
    return _rogosinski_core(f, p_exp, n, r, zero_schwarz_slice(), "H_PN", params)


def s_star(f: CoefficientSeries, r: float) -> float:
    """Weighted coefficient energy ``sum_s s |P_s(z)|^2`` with its tail added."""
    r = _check_radius(r, allow_zero=True)
    head, tail = _energy(f.moduli_array, f.coefficient_bound, r)
    return float(head + tail)


@lru_cache(maxsize=None)
def c_constant(s: int) -> float:
    """max over a in [0, 1] of ``a (1+a)^2 (1-a^2)^(2s-2)``.

    Located by a 10^4-point grid followed by golden-section refinement of the
    bracketing interval to width 1e-12.  s = 1 is admitted as the endpoint
    case (maximum 4 at a = 1), which cross-checks the fixed first weight of
    the constraint.
    """
    if s < 1:
        raise ValueError("s must be >= 1")

    def fn(a: float) -> float:
        return a * (1.0 + a) ** 2 * (1.0 - a * a) ** (2 * s - 2)

    grid = np.linspace(0.0, 1.0, 10_000)
    vals = grid * (1.0 + grid) ** 2 * (1.0 - grid * grid) ** (2 * s - 2)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > 1e-12:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
    return float(max(f1, f2, fn(lo), fn(hi)))


@dataclass(frozen=True)
class ConstraintResult:
    ok: bool
    lhs: float
    excess: float


def constraint_check(d: Sequence[float]) -> ConstraintResult:
    """Check ``8 d_1 (3/8)^2 + sum_{s>=2} 2(2s-1) c_s d_s (3/8)^(2s) <= 1``.

    The first weight is the exact integer 8 (the endpoint maximum 4 doubled),
    so the boundary case d = (8/9,) lands at equality up to roundoff.
    """
    d = _check_weights(d)
    q = (3.0 / 8.0) ** 2
    lhs = 0.0
    for s, weight in enumerate(d, start=1):
        if weight == 0.0:
            continue
        factor = 8.0 if s == 1 else 2.0 * (2 * s - 1) * c_constant(s)
        lhs += factor * weight * q**s
    ok = lhs <= 1.0 + 1e-12
    return ConstraintResult(ok=ok, lhs=lhs, excess=max(0.0, lhs - 1.0))


def eval_improved_bohr(
    f: CoefficientSeries, d: Sequence[float], r: float
) -> EvaluationReport:
    """Refined sum plus the polynomial ``G(t) = sum d_i t^i`` of the energy.

    value = [refined sum with m = 0, N = 1] + G(S*) where S* is the weighted
    coefficient energy; requires :func:`constraint_check` to pass.
    """
    check = constraint_check(d)
    if not check.ok:
        raise ConstraintViolation(
            f"weight constraint violated by excess {check.excess!r}"
        )
    r = _check_radius(r, allow_zero=True)
    value, tail = _improved_terms(f.moduli_array, f.coefficient_bound, d, r)
    params = {"d": list(float(x) for x in d)}
    return _report("I_M", params, r, value, tail, _describe(f), _certified(f))


def lemma_tail_bound_check(f: CoefficientSeries, n: int, r: float) -> float:
    """Conservative slack of the refined tail bound at radius ``r``.

    Returns RHS - (LHS + LHS tail certificates) where, with t = floor((N-1)/2),

    LHS = sum_{s>=N} |P_s| + sgn(t) sum_{s=1..t} |P_s|^2 r^(N-2s)/(1-r)
        + (1/(1+|f(0)|) + r/(1-r)) sum_{s>t} |P_s|^2
    RHS = (1 - |f(0)|^2) r^N / (1 - r).

    The contract is slack >= 0 up to roundoff: the truncation certificates
    are already charged against the slack.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    r = _check_radius(r, allow_zero=True)
    lhs, rhs = _lemma_sides(f.moduli_array, f.coefficient_bound, n, r)
    return rhs - lhs


def report_to_json(report: EvaluationReport) -> dict:
    return {
        "value": report.value,
        "tail_error": report.tail_error,
        "margin": report.margin,
        "inputs": dict(report.inputs),
    }


@dataclass(frozen=True)
class KindSpec:
    """Every per-kind fact of one :class:`FunctionalTag`: a row of :data:`KINDS`.

    ``params`` (also the CLI flags) are checked by building the kind's radius
    equation where it has one.  ``radius`` is None where the inequality holds
    at every radius below 1.  ``evaluate`` gets the lacunary structure when
    ``lacunary`` is set.  ``batch`` gives values and tails of coefficient rows,
    whose margins are value + tail - ``level``.
    Campaign trials insert ``gap`` zero Schur parameters and evaluate ``wrap``.
    ``family`` is the p of the proof's extremal lam^m phi_a(lam^p), raising
    NotSharpError where the proofs give no witness; None: Mobius maps, a -> 1.
    """

    params: tuple[str, ...]
    check: Callable[[FunctionalKind], object]
    evaluate: Callable[..., EvaluationReport]
    batch: Callable[..., tuple]
    level: float = 1.0
    radius: Callable[[FunctionalKind], float] | None = None
    lacunary: bool = False
    gap: Callable[[FunctionalKind], int] = lambda kind: 0
    wrap: Callable[..., object] = lambda kind, g: g
    family: Callable[[FunctionalKind], int | None] = lambda kind: None


def _equation_kind(params, equation, **facts) -> KindSpec:
    """A kind whose sharp radius is the maximal root of ``equation(kind)``."""
    return KindSpec(params, equation, radius=lambda k: maximal_root(equation(k)), **facts)


def _rogosinski_rows(kind, coeffs, mods, bound, r):
    T = mods.shape[0] - 1
    rho = r**kind.m  # the monomial Schwarz slice maps r to r^m
    # f(rho) on the real and imaginary planes, like every other sum here: a
    # complex zgemv rounds a trial differently in blocks of different widths.
    powers = _powers(rho, np.arange(T + 1, dtype=float))
    x = np.hypot(powers @ coeffs.real, powers @ coeffs.imag)
    df = weighted_tail(bound, rho, T, TailWeight.LINEAR)
    head, head_err = _center_power(x, df, kind.p_exp)
    return _rogosinski_terms(mods, bound, kind.n, r, head, head_err)


def _lemma_report(kind, f: CoefficientSeries, r: float) -> EvaluationReport:
    slack = lemma_tail_bound_check(f, kind.n, r)
    rhs = _lemma_rhs(abs(f.coeffs[0]), kind.n, r)
    return _report("LEMMA_TAIL", {"n": kind.n}, r, rhs - slack, 0.0, _describe(f),
                   _certified(f), threshold=rhs)


def _lemma_rows(mods, bound, n: int, r: float):
    # LHS (its certificates included) - RHS with zero tails, taken at level 0.
    lhs, rhs = _lemma_sides(mods, bound, n, r)
    return lhs - rhs, np.zeros_like(lhs)


def _gap_family(kind) -> int:
    if kind.n != kind.m + 1:
        raise NotSharpError("gap-sum sharpness is established at N = m + 1")
    return 1


KINDS: dict[FunctionalTag, KindSpec] = {
    FunctionalTag.A_PM: _equation_kind(
        ("p", "m"),
        lambda k: RadiusEquation.refined_lacunary(k.p, k.m),
        evaluate=lambda k, f, r: eval_lacunary_sum(f, r),
        batch=lambda k, c, mods, b, r: _lacunary_terms(mods, b, k.p, k.m, r),
        lacunary=True,
        wrap=lambda k, g: LacunarySeries(k.m, k.p, g),
        family=lambda k: k.p,
    ),
    FunctionalTag.D_NM: _equation_kind(
        ("n", "m"),
        lambda k: RadiusEquation.gap(k.n, k.m),
        evaluate=lambda k, f, r: eval_gap_sum(f, k.m, k.n, r),
        # The trial function is lam^m g(lam): m leading zero coefficients.
        batch=lambda k, c, mods, b, r: _gap_terms(
            np.pad(mods, ((k.m, 0),) + ((0, 0),) * (mods.ndim - 1)), b, k.m, k.n, r),
        gap=lambda k: k.n - k.m - 1,
        wrap=lambda k, g: lacunary_expand(k.m, 1, g),
        family=_gap_family,
    ),
    FunctionalTag.G_MPN: _equation_kind(
        ("m", "p_exp", "n"),
        lambda k: RadiusEquation.rogosinski(k.n, k.p_exp, k.m),
        evaluate=lambda k, f, r: eval_rogosinski(f, k.m, k.p_exp, k.n, r),
        batch=_rogosinski_rows,
    ),
    FunctionalTag.H_PN: _equation_kind(
        ("p_exp", "n"),
        lambda k: RadiusEquation.rogosinski_limit(k.n, k.p_exp),
        evaluate=lambda k, f, r: eval_rogosinski_center(f, k.p_exp, k.n, r),
        batch=lambda k, c, mods, b, r: _rogosinski_terms(
            mods, b, k.n, r, *_center_power(mods[0], 0.0, k.p_exp)),
    ),
    FunctionalTag.I_M: KindSpec(
        ("d",),
        lambda k: _check_weights(k.d),
        evaluate=lambda k, f, r: eval_improved_bohr(f, k.d, r),
        batch=lambda k, c, mods, b, r: _improved_terms(mods, b, k.d, r),
        radius=lambda k: 1.0 / 3.0,
    ),
    FunctionalTag.LEMMA_TAIL: KindSpec(
        ("n",),
        lambda k: _check_int("n", k.n, 1),
        evaluate=_lemma_report,
        batch=lambda k, c, mods, b, r: _lemma_rows(mods, b, k.n, r),
        level=0.0,
    ),
}
