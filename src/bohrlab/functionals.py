"""Refined Bohr-type coefficient sums with truncation-error certificates.

Every evaluator consumes a slice series (coefficient moduli along one
direction), sums the printed formula up to the truncation order, and adds a
certified bound for the dropped terms.  Reports carry ``margin = value +
tail_error - 1`` so a nonpositive margin certifies the inequality at that
radius: the tail always lands on the unsafe side.  A report decides its own
verdict, its ``status``: HOLDS, VIOLATED, or UNCERTIFIED when the input
carries no disk-self-map certificate.

Each formula is written once, as a private helper over degree-major moduli
of shape ``(T+1, ...)`` with a coefficient bound per function (a float or an
array): it indexes the degree axis first and returns ``(value, tail)``.
Each kind's row of :data:`KINDS` holds one formula row, ``batch``, built from
those helpers, and each step of an evaluation has one home.  :func:`_read`
gives the series a kind reads (g of a lacunary input for A_PM, else the
expanded series, checked against the kind's support).  :func:`_row` runs
the formula row and the level, and is the one place a margin
``value + tail - level`` is formed.  :func:`_columns` runs ``_row`` on a
read series once per block of checked radii (every kind admits
0 <= r < MAX_EVAL_RADIUS) and yields each block's values, tails, levels and
margins as float lists: the columns.  The scalar path is a batch of one.
``harness.evaluate_grid`` and ``evaluate_kind``, the one public way to
evaluate a kind, turn the columns into reports (:class:`EvaluationReport`),
which ``verify``, the selftest and the crossing's bisection read; ``sweep``
and the crossing scan of ``harness.empirical_radius`` read the margin
column and build no report.  Randomized campaigns pass a (T+1, trials)
batch, one column per trial, through ``_row`` too.
The composed center of G_MPN is the only formula that reads the complex
coefficients: |f(w(r))|^p at w = lam^m, the sharp case of Schwarz's lemma.

Every power table ``x ** exponents`` goes through one helper,
:func:`_powers`, which stops at the smallest normal double: an entry is
``x ** e`` bit for bit where ``x ** e * W >= 2**-1022`` and 0.0 elsewhere,
W being the larger of 1 and the largest weight (modulus, squared modulus or
``s |c_s|^2``) the table is contracted against.  numpy's ``pow`` takes about
7 ns per normal result and about 200 ns per subnormal one, so at r <= 0.6
most of a long table's time went to terms below 2.2e-308.  A table whose
last entry is normal (every campaign table) is one plain ``pow`` and needs
no W.  A_PM's squared table squares only the entries whose square stays
above the same cut.  G_MPN's composed center keeps the exact table, cut
only where ``pow`` returns 0.0: |f(r^m)|^p with p < 1 magnifies a tiny
f(r^m).  Only values made of subnormal terms alone move, and they only
fall; :func:`_powers` states the bound per sum (below 2**-480 for a
self-map with T < 2**13).

The helpers also run on a radius axis.  ``sweep`` and the crossing scan of
``harness.empirical_radius`` hand ``_columns`` many radii; it runs each
block of them as one ``r``, a 1-D :class:`_RadiusAxis`, and every radius
gets the floats it gets alone, bit for bit.  Only two functions look at the
shape of ``r``: :func:`_powers` builds one table row per radius with the
same numpy ``pow`` as for one radius, and :func:`_contract` takes each row's
dot product as ``np.vecdot`` where one radius (or a campaign's gemv over
trials) takes ``@``.  Adds, subtracts, multiplies and divides round the same
on arrays as on floats, but numpy's array ``pow`` differs from libm ``pow``
(a float or numpy scalar) in about 5% of bases.  So every power whose base
depends on the radius (r^p, r^m, r^(p-m), r^n, r^(1-m), the tails' r^(T+1)
and x^(T+1), LEMMA_TAIL's level r^N, G_MPN's x^p and (x+df)^p, I_M's
energy^i) stays one libm ``pow`` per radius: :class:`_RadiusAxis` takes its
powers entry by entry.  Where a radius's squared sum is empty (r = 0, or r^m
underflows) its bracket is not used, and each radius decides that alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .radii import RadiusEquation, _check_int, maximal_root
from .series import CoefficientSeries, LacunarySeries, TailWeight, weighted_tail

__all__ = [
    "ConstraintResult",
    "ConstraintViolation",
    "EvaluationReport",
    "FunctionalKind",
    "FunctionalTag",
    "KINDS",
    "KindSpec",
    "NotSharpError",
    "Status",
    "SupportError",
    "c_constant",
    "constraint_check",
]

_SUPPORT_TOL = 1e-12


class SupportError(ValueError):
    """A slice carries coefficients outside the support the formula assumes."""


class ConstraintViolation(ValueError):
    """The polynomial-weight constraint fails, so the evaluation is undefined."""


class NotSharpError(ValueError):
    """The kind has no sharp radius, or the proofs give no witness for its parameters."""


class Status(str, Enum):
    """The verdict of one evaluation."""

    HOLDS = "HOLDS"                # certified input, margin <= 0
    VIOLATED = "VIOLATED"          # certified input, margin > 0 or NaN
    UNCERTIFIED = "UNCERTIFIED"    # the input carries no disk-self-map certificate


@dataclass(frozen=True)
class EvaluationReport:
    """Value, certified truncation error, margin and verdict of one evaluation.

    ``margin`` is ``value + tail_error - level``, computed on the unsafe side;
    ``level`` is the comparison level, 1 unless the kind compares against
    another (LEMMA_TAIL: the bound's right side).  The rest is provenance:
    functional kind, parameters, radius, input descriptor, and whether the
    input's class certificate makes the verdict meaningful.
    """

    value: float
    tail_error: float
    margin: float
    kind: str
    params: dict
    r: float
    function: str
    certified: bool
    level: float

    @property
    def status(self) -> Status:
        if not self.certified:
            return Status.UNCERTIFIED
        # A NaN margin is no proof that the inequality holds.
        return Status.HOLDS if self.margin <= 0.0 else Status.VIOLATED

    def to_json(self) -> dict:
        inputs = {"kind": self.kind, "params": self.params, "r": self.r,
                  "function": self.function, "certified": self.certified}
        if self.level != 1.0:
            inputs["threshold"] = self.level
        return {"value": self.value, "tail_error": self.tail_error,
                "margin": self.margin, "inputs": inputs}


class FunctionalTag(str, Enum):
    A_PM = "A_PM"            # refined lacunary sum
    D_NM = "D_NM"            # refined gap sum
    G_MPN = "G_MPN"          # composed center term + tail sums
    H_PN = "H_PN"            # center term at the origin + tail sums
    I_M = "I_M"              # refined sum plus polynomial coefficient energy
    LEMMA_TAIL = "LEMMA_TAIL"  # tail-bound slack check


#: Every parameter field of a kind; a kind takes only those of its ``spec.params``.
_PARAMETERS = ("p", "m", "n", "p_exp", "d")


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
        for name in _PARAMETERS:
            if getattr(self, name) is not None and name not in self.spec.params:
                raise ValueError(f"kind {self.tag.value} takes no {name}")
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


#: The smallest normal double, and its square root.  numpy's ``pow`` takes
#: about 7 ns per entry whose result is normal and about 200 ns per
#: subnormal one.
_NORMAL = 2.0**-1022
_NORMAL_LOG2 = -1022.0
_NORMAL_ROOT = 2.0**-511

#: The weight at which the normal cut is ``pow``'s own: below 2**-1100 a
#: power is 0.0 in double (the least subnormal is 2**-1074).  A larger
#: weight keeps no more entries, so every weight is capped here.
_EXACT_WEIGHT = 2.0**78

#: Relative slack of a cut taken in the log domain, so that it never falls
#: short of the cut the table's own values give (its error is a few ulp).
_CUT_SLACK = 1e-12

#: Most power-table entries one radius block holds (256 KB per table).
_RADIUS_BLOCK = 2**15


class _RadiusAxis(np.ndarray):
    """Radii, or a quantity with one entry per radius, as a 1-D float array.

    Arithmetic keeps the type, and ``x ** e`` takes libm ``pow`` one entry at
    a time, as the numpy scalar of one radius does: numpy's array power
    rounds some entries differently.  A power of 0 to a negative exponent, or
    one that overflows, is inf with a floating-point warning, as for a numpy
    scalar; the formulas form those only at radii whose result they discard.
    """

    def __pow__(self, exponent):
        return np.array([x**exponent for x in self]).view(_RadiusAxis)


def _weight(weights) -> float:
    """W of a table contracted against ``weights``: at least 1, at most _EXACT_WEIGHT.

    ``None`` asks for the exact table, cut only where ``pow`` gives 0.0.
    """
    if weights is None:
        return _EXACT_WEIGHT
    return min(float(weights.max(initial=1.0)), _EXACT_WEIGHT)


def _cut(log, exponents: np.ndarray, weight: float):
    """How many leading entries of a table of ``t_e = x^e`` to compute.

    ``log`` is log2(x) < 0 (one per row on a radius axis).  The count covers
    every entry with ``t_e * weight >= 2**-1022`` and at most one entry past
    them, which the caller trims by its value.
    """
    limit = (_NORMAL_LOG2 - math.log2(weight)) / log * (1.0 + _CUT_SLACK)
    return np.searchsorted(exponents, limit, side="right")


def _cut_row(log: float, exponents: np.ndarray, weights, fill) -> np.ndarray:
    """One table of ``x^e`` (``log`` = log2(x)), 0.0 where ``entry * W < 2**-1022``.

    ``fill(out, k)`` writes the first k entries into ``out``.
    """
    weight = _weight(weights)
    k = int(_cut(log, exponents, weight))
    out = np.zeros(exponents.shape)
    fill(out[:k], k)
    if k and out[k - 1] * weight < _NORMAL:
        out[k - 1] = 0.0
    return out


def _cut_rows(bases: np.ndarray, log_scale: float, exponents: np.ndarray, weights, fill):
    """:func:`_cut_row` on a radius axis: one row per base, each cut at its own point.

    ``fill(out, where)`` writes the entries ``where`` selects in one masked
    ufunc call, which runs its loop on each row's unmasked run: every entry is
    the one the row's own call computes.  A row whose base is not in (0, 1)
    (r = 0) is computed whole, as one radius takes the plain power.
    """
    weight = _weight(weights)
    cuts = np.full(bases.size, exponents.size)
    inside = (0.0 < bases) & (bases < 1.0)
    cuts[inside] = _cut(log_scale * np.log2(bases[inside]), exponents, weight)
    out = np.zeros((bases.size, exponents.size))
    # Each row's mask is a prefix, set by one slice: a broadcast compare
    # ``arange < cuts[:, None]`` over the whole block takes several times longer.
    where = np.zeros(out.shape, dtype=bool)
    for row, cut in enumerate(cuts.tolist()):
        where[row, :cut] = True
    fill(out, where)
    rows = np.flatnonzero(inside & (cuts > 0))
    last = cuts[rows] - 1
    low = out[rows, last] * weight < _NORMAL
    out[rows[low], last[low]] = 0.0
    return out


def _powers(x, exponents: np.ndarray, weights=None) -> np.ndarray:
    """``x ** exponents`` for ascending exponents >= 0, cut at the smallest normal double.

    ``weights`` is what the table is contracted against (moduli, squared
    moduli or ``s |c_s|^2``), and W = max(1, max(weights)).  For 0 < x < 1
    an entry is ``x ** e`` bit for bit where ``x ** e * W >= 2**-1022`` and
    0.0 elsewhere: ``pow`` takes about 7 ns per normal result and 200 ns per
    subnormal one, and each dropped product is below 2**-1022.  Where the
    table's last entry is normal W is not needed and the table is one plain
    ``pow`` (every campaign table: its T makes r^(T+1) about 1e-12).
    ``weights=None`` gives the exact table, cut only where ``pow`` returns
    0.0 (x^e < 2**-1100); G_MPN's composed center keeps it, since |f|^p with
    p < 1 magnifies a tiny f.  Other bases take the plain power, and a radius
    axis ``x`` gives one row per radius (:func:`_cut_rows`).

    What the cut drops from a sum: at most T+1 terms, each nonnegative and
    below 2**-1022 before the sum's own factors.  So a value only falls, by
    at most
      * (T+1) 2**-1022 in a linear sum and in the energy S* (I_M's
        G(S*) = sum d_i S*^i scales that by G'(S*), and moves its tail too);
      * (T+1) 2**-1021/(1-r) in a squared sum times its bracket: in A_PM
        r^(2m) times the bracket is at most 2/(1-r), in G_MPN, H_PN and
        LEMMA_TAIL the bracket is at most 1/(1-r);
      * (T+1) 2**-511 max(1, max|c_s|)/(1-r) in D_NM's squared sum: its
        bracket is at most r^-m/(1-r), and a dropped r^(2s)|c_s|^2 has
        r^s |c_s| < 2**-511 with s > m, so r^(2s-m)|c_s|^2 < 2**-511 |c_s|.
    For a self-map with T < 2**13 (and r < 0.995) every report moves by less
    than 2**-480.
    """
    if isinstance(x, _RadiusAxis):
        bases = x.view(np.ndarray)
        return _cut_rows(bases, 1.0, exponents, weights, lambda out, where: np.power(
            bases[:, None], exponents, out=out, where=where))
    if not 0.0 < x < 1.0 or not exponents.size:
        return x**exponents
    log = math.log2(x)
    if weights is not None and exponents[-1] * log >= _NORMAL_LOG2:
        table = x**exponents
        if table[-1] >= _NORMAL:
            return table
    return _cut_row(log, exponents, weights,
                    lambda out, k: np.power(x, exponents[:k], out=out))


def _squares(table: np.ndarray, x, exponents: np.ndarray, weights) -> np.ndarray:
    """``table ** 2`` for ``table = _powers(x, exponents, ...)``, cut by the same rule.

    An entry is squared where its square times W = max(1, max(weights)) is
    at least 2**-1022, and 0.0 elsewhere: squaring toward a subnormal costs
    about ten normal multiplies.  With W = 1 that keeps the entries >= 2**-511.
    """
    if isinstance(x, _RadiusAxis):
        return _cut_rows(x.view(np.ndarray), 2.0, exponents, weights,
                         lambda out, where: np.square(table, out=out, where=where))
    if not 0.0 < x < 1.0 or not table.size or table[-1] >= _NORMAL_ROOT:
        return table**2
    return _cut_row(2.0 * math.log2(x), exponents, weights,
                    lambda out, k: np.square(table[:k], out=out))


def _contract(table: np.ndarray, mods: np.ndarray):
    """``table @ mods`` over the degree axis, rounded as on one radius.

    A 1-D table (one radius) takes ``@``: a BLAS dot product for one
    function, a gemv over a campaign's trials.  A radius axis's 2-D table
    takes ``np.vecdot``, whose rows are the same dot products as ``@`` on each
    radius alone; ``table @ mods`` would be a gemv, which rounds differently.
    """
    if table.ndim == 1:
        return table @ mods
    return np.vecdot(table, mods).view(_RadiusAxis)


def _power_sum(x, exponents: np.ndarray, weights: np.ndarray):
    """``sum_e x^e weights_e`` over the degree axis, on the table cut for ``weights``."""
    return _contract(_powers(x, exponents, weights), weights)


# ---------------------------------------------------------------------------
# The formulas.  ``mods`` holds moduli of shape (T+1, ...), degree first, and
# ``bound`` the per-function bound on every dropped coefficient; each helper
# indexes the degree axis and returns (value, tail).
# ---------------------------------------------------------------------------


def _lacunary_terms(mods, bound, p: int, m: int, r: float):
    """A_PM: the refined sum of a slice supported on ``{s*p + m}``, from the moduli of g.

    value = sum_s |g_s| r^(sp+m)
          + (1/(r^m + |g_0| r^m) + r^(p-m)/(1-r^p)) * sum_{s>=1} |g_s|^2 r^(2(sp+m))

    of f = lam^m g(lam^p), with lacunary-aware tails (geometric in r^p).
    """
    T = mods.shape[0] - 1
    rp = r**p
    rm = r**m
    exponents = np.arange(T + 1)
    powers = _powers(rp, exponents, mods)
    linear = rm * _contract(powers, mods)
    lin_tail = rm * weighted_tail(bound, rp, T, TailWeight.LINEAR)
    sq_mods = mods[1:] ** 2
    sq = rm * rm * _contract(_squares(powers[..., 1:], rp, exponents[1:], sq_mods), sq_mods)
    sq_tail = rm * rm * weighted_tail(bound, rp, T, TailWeight.SQUARED)
    # Where r^m underflows the squared sum is empty and the bracket infinite.
    return _bracketed(linear, lin_tail, sq, sq_tail,
                      lambda: 1.0 / (rm * (1.0 + mods[0])) + r ** (p - m) / (1.0 - rp))


def _gap_terms(mods, bound, m: int, n: int, r: float):
    """D_NM: the refined sum of a slice supported on ``{m} union {s >= N}``.

    value = |P_m| + sum_{s>=N} |P_s|
          + (1/(r^m + |P_m|) + r^(1-m)/(1-r)) * sum_{s>=N} |P_s|^2

    with |P_s| = |c_s| r^s.  At r = 0 every series term vanishes and the
    base term alone is returned; the bracket is never formed when its sum
    is empty, so no division occurs.
    """
    T = mods.shape[0] - 1
    pm = (mods[m] if m <= T else 0.0) * r**m
    linear = pm + _power_sum(r, np.arange(n, T + 1, dtype=float), mods[n:])
    lin_tail = weighted_tail(bound, r, T, TailWeight.LINEAR)
    sq = _power_sum(r, 2.0 * np.arange(n, T + 1, dtype=float), mods[n:] ** 2)
    sq_tail = weighted_tail(bound, r, max(T, n - 1), TailWeight.SQUARED)
    # The bracket divides by r^m + |P_m| and by r^(m-1).  Where either
    # overflows, every r^(2s) with s >= N > m underflows: the sum is empty
    # (as at r = 0) and the bracket is not used.
    return _bracketed(linear, lin_tail, sq, sq_tail,
                      lambda: 1.0 / (r**m + pm) + r ** (1 - m) / (1.0 - r))


def _bracketed(linear, lin_tail, sq, sq_tail, bracket):
    """``linear + bracket() * sq`` and its tail; an empty squared sum adds nothing.

    The squared sum is empty where it and its tail are 0: at r = 0, or where
    r^m underflows.  There the bracket may be infinite or undefined, so it
    is formed only if some entry needs it, and an empty entry keeps its
    linear sums: each radius of a grid decides for itself, as it does alone.
    A NaN sum or tail is not empty: it reaches the value, whose NaN margin
    fails closed.
    """
    full = sq + sq_tail != 0.0
    # One radius gives a 0-d flag, and bool() tests it in a fraction of the
    # time .all() and .any() take.
    if bool(full) if full.ndim == 0 else full.all():
        factor = bracket()
        return linear + factor * sq, lin_tail + factor * sq_tail
    if full.ndim == 0 or not full.any():
        return linear, lin_tail
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        factor = bracket()
        return (np.where(full, linear + factor * sq, linear),
                np.where(full, lin_tail + factor * sq_tail, lin_tail))


def _rogosinski_terms(mods, bound, n: int, r: float, head, head_err):
    """G_MPN and H_PN: a center term ``head`` plus tail sums, with t = floor((N-1)/2):

    value = head + sum_{s>=N} |P_s|
          + sgn(t) sum_{s=1..t} |P_s|^2 r^(N-2s)/(1-r)
          + (1/(1+|f(0)|) + r/(1-r)) sum_{s>t} |P_s|^2

    G_MPN's head is |f(w(r))|^p with w = lam^m, the sharp case of Schwarz's
    lemma |w(lam)| <= |lam|^m for an order-m Schwarz map
    (:func:`_composed_center`).  H_PN is the order-infinity limit: the head
    collapses to |f(0)|^p.
    """
    T = mods.shape[0] - 1
    linear = _power_sum(r, np.arange(n, T + 1, dtype=float), mods[n:])
    lin_tail = weighted_tail(bound, r, T, TailWeight.LINEAR)
    t = (n - 1) // 2
    middle = 0.0
    mid_tail = 0.0
    if t >= 1:
        middle = (mods[1 : min(t, T) + 1] ** 2).sum(axis=0) * r**n / (1.0 - r)
        if t > T:
            mid_tail = (t - T) * bound * bound * r**n / (1.0 - r)
    sq = _power_sum(r, 2.0 * np.arange(t + 1, T + 1, dtype=float), mods[t + 1 :] ** 2)
    sq_tail = weighted_tail(bound, r, T, TailWeight.SQUARED)
    bracket = 1.0 / (1.0 + mods[0]) + r / (1.0 - r)
    value = head + linear + middle + bracket * sq
    tail = head_err + lin_tail + mid_tail + bracket * sq_tail
    return value, tail


def _center_power(x, df, p_exp: float):
    """``x^p`` and the certified increment ``(x + df)^p - x^p`` (p is monotone)."""
    head = x**p_exp
    return head, (x + df) ** p_exp - head


def _composed_center(coeffs, bound, m: int, p_exp: float, r: float):
    """|f(r^m)|^p and its certified increment: the center at w = lam^m.

    f(r^m) is summed on the real and imaginary planes, like every other sum
    here: a complex zgemv rounds a trial differently in blocks of different
    widths.  The LINEAR tail at r^m bounds the dropped terms.  The power
    table is exact, not cut at 2**-1022: for p < 1, |f|^p magnifies a tiny f.
    """
    T = coeffs.shape[0] - 1
    rho = r**m
    powers = _powers(rho, np.arange(T + 1, dtype=float))
    x = np.hypot(_contract(powers, coeffs.real), _contract(powers, coeffs.imag))
    return _center_power(x, weighted_tail(bound, rho, T, TailWeight.LINEAR), p_exp)


def _energy(mods, bound, r: float):
    """The weighted coefficient energy S* = ``sum_{s>=1} s |P_s|^2`` and its S_STAR tail.

    ``head + tail`` bounds S* from above.
    """
    T = mods.shape[0] - 1
    s = np.arange(1, T + 1, dtype=float)
    weights = s.reshape(s.shape + (1,) * (mods.ndim - 1))  # s down the degree axis
    head = _power_sum(r, 2.0 * s, weights * mods[1:] ** 2)
    return head, weighted_tail(bound, r, T, TailWeight.S_STAR)


def _improved_terms(mods, bound, d: Sequence[float], r: float):
    """I_M: the refined sum plus the polynomial ``G(t) = sum_i d_i t^i`` of the energy.

    value = [refined sum with m = 0, N = 1] + G(S*)

    with S* the weighted coefficient energy (:func:`_energy`).  The kind's
    weights pass :func:`constraint_check`.
    """
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


def _lemma_lhs(mods, bound, n: int, r: float):
    """LEMMA_TAIL: the tail bound's LHS, tail certificates included, and a zero tail.

    With t = floor((N-1)/2),

    LHS = sum_{s>=N} |P_s| + sgn(t) sum_{s=1..t} |P_s|^2 r^(N-2s)/(1-r)
        + (1/(1+|f(0)|) + r/(1-r)) sum_{s>t} |P_s|^2
    RHS = (1 - |f(0)|^2) r^N / (1 - r),

    the kind's comparison level.  The report's margin is LHS - RHS, and
    the bound holds where it is <= 0 up to roundoff: the truncation
    certificates are already charged to the LHS.
    """
    value, tail = _rogosinski_terms(mods, bound, n, r, 0.0, 0.0)
    return value + tail, np.zeros_like(value)


# ---------------------------------------------------------------------------
# The evaluation path: what a kind reads, its formula row, and its columns.
# ---------------------------------------------------------------------------


def _read(kind: FunctionalKind, f: CoefficientSeries | LacunarySeries) -> CoefficientSeries:
    """The series ``kind``'s row reads: g of ``f = lam^m g(lam^p)`` for a lacunary kind, else f.

    A lacunary kind needs ``f`` lacunary (TypeError) with the kind's (m, p)
    (ValueError).  Every other kind reads ``f`` expanded, whose coefficients
    must vanish off the kind's support (SupportError).
    """
    spec = kind.spec
    if spec.lacunary:
        if not isinstance(f, LacunarySeries):
            raise TypeError(f"{kind.tag.value} needs the lacunary structure (m, p, g)")
        if (f.m, f.p) != (kind.m, kind.p):
            raise ValueError(f"kind {kind.label()} does not match the input's (m={f.m}, p={f.p})")
        return f.g
    if isinstance(f, LacunarySeries):
        f = f.expand()
    mods = f.moduli_array
    m, n = spec.support(kind)
    for s in range(min(n, mods.size)):
        if s != m and mods[s] > _SUPPORT_TOL:
            raise SupportError(f"coefficient c_{s} = {float(mods[s])!r} violates the support "
                               f"{{{m}}} | {{s >= {n}}}")
    return f


def _row(kind: FunctionalKind, coeffs, mods, bound, r):
    """``kind``'s formula row at ``r``: ``(value, tail, level, margin)``.

    ``coeffs`` and ``mods`` are degree-major, one column per function, with
    ``bound`` on every dropped coefficient; ``r`` is one radius or a radius
    axis.  Every evaluation runs here, and only here is a margin formed.
    """
    spec = kind.spec
    value, tail = spec.batch(kind, coeffs, mods, bound, r)
    level = spec.level(kind, mods, r)
    return value, tail, level, value + tail - level


def _columns(kind: FunctionalKind, g: CoefficientSeries,
             radii: Sequence[float]) -> Iterator[tuple[list[float], ...]]:
    """:func:`_row` on ``g`` (read by :func:`_read`) at each of ``radii``, as float columns.

    The radii must already pass the evaluation-radius rule.  One formula
    pass runs per block of radii, lazily and in order: a block holds at most
    ``_RADIUS_BLOCK`` power-table entries.  Each block yields its radii and
    their values, tails, levels and margins.  A block of one radius runs the
    row on that float; a longer one on a radius axis, which gives every
    radius exactly its one-radius floats.
    """
    coeffs, mods, bound = g.coeffs_array, g.moduli_array, g.coefficient_bound
    size = max(1, _RADIUS_BLOCK // mods.size)
    for lo in range(0, len(radii), size):
        block = radii[lo : lo + size]
        count = len(block)
        r = block[0] if count == 1 else np.array(block).view(_RadiusAxis)
        yield block, *(_entries(x, count) for x in _row(kind, coeffs, mods, bound, r))


def _entries(x, count: int) -> list[float]:
    """The ``count`` floats of a block's result: one per radius, or one for all."""
    return x.tolist() if getattr(x, "ndim", 0) else [float(x)] * count


def c_constant(s: int) -> float:
    """max over a in [0, 1] of ``a (1+a)^2 (1-a^2)^(2s-2)``, in closed form.

    The log-derivative vanishes where (4s-1) a^2 - 2a - 1 = 0, at
    a* = 1/(2 sqrt(s) - 1).  s = 1 is admitted as the endpoint case (maximum
    4 at a* = 1), which cross-checks the fixed first weight of the constraint.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    a = 1.0 / (2.0 * math.sqrt(s) - 1.0)
    return a * (1.0 + a) ** 2 * (1.0 - a * a) ** (2 * s - 2)


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
    if d is None:
        raise ValueError("the weight sequence d is required")
    d = tuple(float(x) for x in d)
    if not all(math.isfinite(x) and x >= 0.0 for x in d):
        raise ValueError(f"weights d_i must be finite and nonnegative, got {list(d)!r}")
    q = (3.0 / 8.0) ** 2
    lhs = 0.0
    for s, weight in enumerate(d, start=1):
        if weight == 0.0:
            continue
        factor = 8.0 if s == 1 else 2.0 * (2 * s - 1) * c_constant(s)
        lhs += factor * weight * q**s
    ok = lhs <= 1.0 + 1e-12
    return ConstraintResult(ok=ok, lhs=lhs, excess=max(0.0, lhs - 1.0))


def _check_constraint(d: Sequence[float] | None) -> None:
    """Raise ValueError for bad weights, ConstraintViolation where the constraint fails."""
    check = constraint_check(d)
    if not check.ok:
        raise ConstraintViolation(f"weight constraint violated by excess {check.excess!r}")


@dataclass(frozen=True)
class KindSpec:
    """Every per-kind fact of one :class:`FunctionalTag`: a row of :data:`KINDS`.

    ``params`` (also the CLI flags) are checked by ``check``, which builds the
    kind's radius equation where it has one and tests I_M's weight constraint.
    ``radius`` is None where the inequality holds at every radius below 1.
    ``batch`` is the kind's one formula: the values and tails of degree-major
    coefficient rows, complex and as moduli, with their coefficient bounds.
    Every evaluation runs it through :func:`_row`, on one series or on a
    campaign block, with the margins value + tail - ``level(kind, mods, r)``.
    A ``lacunary`` kind reads g of lam^m g(lam^p).
    ``support`` is (m, N): the coefficients vanish off {m} | {s >= N}.  An
    evaluation checks it; a campaign trial is lam^m g, with N - m - 1 zero
    Schur parameters inserted after g's first.
    ``family`` is the p of the proof's extremal lam^m phi_{-a}(lam^p), raising
    NotSharpError where the proofs give no witness; None: Mobius maps, a -> 1.
    """

    params: tuple[str, ...]
    check: Callable[[FunctionalKind], object]
    batch: Callable[..., tuple]
    level: Callable[..., object] = lambda kind, mods, r: 1.0
    radius: Callable[[FunctionalKind], float] | None = None
    lacunary: bool = False
    support: Callable[[FunctionalKind], tuple[int, int]] = lambda kind: (0, 1)
    family: Callable[[FunctionalKind], int | None] = lambda kind: None


def _equation_kind(params, equation, **facts) -> KindSpec:
    """A kind whose sharp radius is the maximal root of ``equation(kind)``."""
    return KindSpec(params, equation, radius=lambda k: maximal_root(equation(k)), **facts)


def _gap_family(kind) -> int:
    if kind.n != kind.m + 1:
        raise NotSharpError("gap-sum sharpness is established at N = m + 1")
    return 1


KINDS: dict[FunctionalTag, KindSpec] = {
    FunctionalTag.A_PM: _equation_kind(
        ("p", "m"),
        lambda k: RadiusEquation.refined_lacunary(k.p, k.m),
        batch=lambda k, c, mods, b, r: _lacunary_terms(mods, b, k.p, k.m, r),
        lacunary=True,
        family=lambda k: k.p,
    ),
    FunctionalTag.D_NM: _equation_kind(
        ("n", "m"),
        lambda k: RadiusEquation.gap(k.n, k.m),
        batch=lambda k, c, mods, b, r: _gap_terms(mods, b, k.m, k.n, r),
        support=lambda k: (k.m, k.n),
        family=_gap_family,
    ),
    FunctionalTag.G_MPN: _equation_kind(
        ("m", "p_exp", "n"),
        lambda k: RadiusEquation.rogosinski(k.n, k.p_exp, k.m),
        batch=lambda k, c, mods, b, r: _rogosinski_terms(
            mods, b, k.n, r, *_composed_center(c, b, k.m, k.p_exp, r)),
    ),
    FunctionalTag.H_PN: _equation_kind(
        ("p_exp", "n"),
        lambda k: RadiusEquation.rogosinski_limit(k.n, k.p_exp),
        batch=lambda k, c, mods, b, r: _rogosinski_terms(
            mods, b, k.n, r, *_center_power(mods[0], 0.0, k.p_exp)),
    ),
    FunctionalTag.I_M: KindSpec(
        ("d",),
        lambda k: _check_constraint(k.d),
        batch=lambda k, c, mods, b, r: _improved_terms(mods, b, k.d, r),
        radius=lambda k: 1.0 / 3.0,
    ),
    FunctionalTag.LEMMA_TAIL: KindSpec(
        ("n",),
        lambda k: _check_int("n", k.n, 1),
        batch=lambda k, c, mods, b, r: _lemma_lhs(mods, b, k.n, r),
        # The bound's right side (1 - |c_0|^2) r^N / (1 - r).
        level=lambda k, mods, r: (1.0 - mods[0] ** 2) * r**k.n / (1.0 - r),
    ),
}
