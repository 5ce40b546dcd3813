"""Truncated coefficient series of disk self-maps, with certified tail bounds.

A function bounded by 1 on the unit disk is represented by its first ``T+1``
Taylor coefficients together with a single number bounding the modulus of
every dropped coefficient.  That pair is enough to evaluate partial sums,
Bohr-type coefficient sums and weighted coefficient energies with an explicit
upper bound on the truncation error, which is what the rest of the package
consumes.

Coefficients of a self-map of the disk satisfy |c_s| <= 1 - |c_0|^2 for
s >= 1, and |c_0| = 1 forces the function to be a unimodular constant; both
facts are enforced at construction time when the series claims an exact
certificate.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Certificate",
    "CoefficientSeries",
    "LacunarySeries",
    "RadiusError",
    "TailWeight",
    "MAX_EVAL_RADIUS",
    "TAIL_TARGET",
    "boundary_supremum",
    "certify_by_sampling",
    "default_truncation",
    "lacunary_expand",
    "mobius_series",
    "mobius_minus_series",
    "schur_from_parameters",
    "series_from_json",
    "series_to_json",
    "tail_bound",
    "truncation_cap",
    "weighted_tail",
]

#: Evaluations at or above this radius are rejected instead of being allowed
#: to drift inaccurate; the inequalities under test live on open intervals.
MAX_EVAL_RADIUS = 0.995

#: Default truncation-error target used when choosing truncation orders.
TAIL_TARGET = 1e-12

_TRUNCATION_CAP_ENV = "BOHRLAB_MAX_TRUNC"
_DEFAULT_TRUNCATION_CAP = 20000

# Constructor tolerances: absolute slack for coefficient inequalities that
# hold exactly in real arithmetic but only up to roundoff here.
_COEFF_TOL = 1e-9
_DEGENERATE_TOL = 1e-12


class RadiusError(ValueError):
    """Raised when an evaluation radius lies outside its admissible range."""


def _check_radius(r: float) -> float:
    """``r`` as a float if 0 <= r < MAX_EVAL_RADIUS; anything else raises RadiusError.

    The one rule for evaluation radii: every evaluator, campaign, ``sweep``
    row and truncation order applies it.  NaN fails the comparison too.
    """
    r = float(r)
    if not 0.0 <= r < MAX_EVAL_RADIUS:
        raise RadiusError(f"radius {r!r} outside the supported range [0, {MAX_EVAL_RADIUS})")
    return r


class Certificate(str, Enum):
    """Why a series is believed to be bounded by 1 on the disk."""

    SCHUR_EXACT = "SCHUR_EXACT"      # built from a construction that guarantees it
    SCHUR_SAMPLED = "SCHUR_SAMPLED"  # passed dense boundary sampling
    UNKNOWN = "UNKNOWN"              # no guarantee; evaluations are flagged


class TailWeight(Enum):
    """Which weighted tail a truncation certificate should bound."""

    LINEAR = "LINEAR"    # sum of |c_s| r^s over dropped s
    SQUARED = "SQUARED"  # sum of |c_s|^2 r^(2s)
    S_STAR = "S_STAR"    # sum of s |c_s|^2 r^(2s)


@dataclass(frozen=True)
class CoefficientSeries:
    """Coefficients ``c_0..c_T`` plus a bound on every dropped coefficient.

    ``coefficient_bound`` guarantees |c_s| <= coefficient_bound for all
    s > truncation_order; it feeds the tail certificates of
    :func:`tail_bound`.  ``certificate`` records why the function is believed
    to map the disk into its closure.

    ``coeffs`` may be any iterable of numbers or a 1-D numpy array.  The
    constructor converts it once to a complex128 array, runs every check on
    that array and its moduli, and keeps both read-only (:attr:`coeffs_array`,
    :attr:`moduli_array`); the ``coeffs`` field holds the same values as a
    tuple of Python complex.
    """

    coeffs: tuple[complex, ...]
    coefficient_bound: float = 0.0
    certificate: Certificate = Certificate.UNKNOWN

    def __post_init__(self) -> None:
        raw = self.coeffs
        if isinstance(raw, np.ndarray):
            arr = np.array(raw, dtype=np.complex128)
        else:
            arr = np.fromiter(raw, dtype=np.complex128)
        if arr.ndim != 1:
            raise TypeError("coefficients must form a one-dimensional sequence")
        if not arr.size:
            raise ValueError("a series needs at least its constant coefficient")
        # A NaN or infinite part, or a modulus past the largest double, gives
        # a NaN or infinite modulus (np.abs raises no warning for the last),
        # and max passes a NaN on.
        mods = np.abs(arr)
        head = float(mods[0])
        tail_max = float(mods[1:].max()) if arr.size > 1 else 0.0
        if not (math.isfinite(head) and math.isfinite(tail_max)):
            raise ValueError("coefficients must be finite")
        bound = float(self.coefficient_bound)
        if not 0.0 <= bound <= 1.0:  # also rejects NaN
            raise ValueError(f"coefficient_bound must lie in [0, 1], got {bound!r}")
        object.__setattr__(self, "coefficient_bound", bound)
        certificate = Certificate(self.certificate)
        object.__setattr__(self, "certificate", certificate)

        if head > 1.0 + _COEFF_TOL:
            raise ValueError("constant coefficient must lie in the closed unit disk")
        # Maximum principle: a unimodular value at 0 forces a constant.
        if head >= 1.0 - _DEGENERATE_TOL and tail_max > _COEFF_TOL:
            raise ValueError(
                "|c_0| = 1 forces a constant function; nonzero higher "
                "coefficients are inconsistent"
            )
        if certificate is Certificate.SCHUR_EXACT:
            cap = 1.0 - head * head + _COEFF_TOL
            if tail_max > cap:
                s = int(np.argmax(mods[1:] > cap)) + 1  # name the first violation
                raise ValueError(
                    f"coefficient c_{s} violates |c_s| <= 1 - |c_0|^2 "
                    f"({float(mods[s])!r} > {cap!r})"
                )

        arr.flags.writeable = False
        mods.flags.writeable = False
        object.__setattr__(self, "coeffs", tuple(arr.tolist()))
        # Kept in the instance __dict__, not as fields, so equality, hashing
        # and repr of the frozen dataclass see only the three fields.
        object.__setattr__(self, "_coeffs_array", arr)
        object.__setattr__(self, "_moduli_array", mods)

    @property
    def coeffs_array(self) -> np.ndarray:
        """Read-only complex128 array of c_0..c_T, built at construction."""
        return self._coeffs_array

    @property
    def moduli_array(self) -> np.ndarray:
        """Read-only float array of |c_0|..|c_T| (``np.abs``), built and
        validated at construction."""
        return self._moduli_array

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_degenerate(self) -> bool:
        """True when the series is a unimodular constant."""
        return bool(self.moduli_array[0] >= 1.0 - _DEGENERATE_TOL)

    def __call__(self, lam: complex) -> complex:
        """Partial-sum value at ``lam`` (Horner); no tail is added here.

        At ``lam == 0`` the value is ``c_0``, returned without the Horner loop.
        """
        if lam == 0:
            return self.coeffs[0]
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def moduli(self) -> tuple[float, ...]:
        return tuple(self.moduli_array.tolist())

    def with_certificate(self, certificate: Certificate) -> "CoefficientSeries":
        return dataclasses.replace(self, certificate=certificate)


@dataclass(frozen=True)
class LacunarySeries:
    """A slice of the form ``F(lam) = lam^m * g(lam^p)``.

    The expanded coefficients are supported on the arithmetic progression
    ``s*p + m``, which is the shape required by the gap-series inequalities.
    """

    m: int
    p: int
    g: CoefficientSeries

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("base order m must be >= 0")
        if self.p < 1:
            raise ValueError("gap p must be >= 1")

    def expand(self) -> CoefficientSeries:
        """The expanded series, built on the first call and reused after it.

        The identity shape m = 0, p = 1 returns ``g`` itself, without a copy.
        Any other expansion whose order m + p*T passes :func:`truncation_cap`
        is rejected with ValueError before allocating.
        """
        return self._expanded

    @functools.cached_property
    def _expanded(self) -> CoefficientSeries:
        # Stored in the instance __dict__, not as a field, so equality,
        # hashing and repr of the frozen dataclass are unchanged.
        m, p, g = self.m, self.p, self.g
        if (m, p) == (0, 1):
            return g
        T = m + p * g.truncation_order
        cap = truncation_cap()
        if T > cap:
            raise ValueError(
                f"expanded order m + p*T = {T} exceeds the truncation cap {cap} "
                f"(set {_TRUNCATION_CAP_ENV} to raise it)"
            )
        coeffs = np.zeros(T + 1, dtype=np.complex128)
        coeffs[m::p] = g.coeffs_array
        return CoefficientSeries(coeffs, g.coefficient_bound, g.certificate)

    def __call__(self, lam: complex) -> complex:
        return lam**self.m * self.g(lam**self.p)


def mobius_series(a: float, truncation_order: int) -> CoefficientSeries:
    """Coefficients of ``lam -> (a + lam) / (1 + a*lam)`` for ``0 <= a < 1``.

    The closed form is c_0 = a and c_s = (1 - a^2) (-a)^(s-1) for s >= 1, so
    every dropped coefficient is bounded by (1 - a^2) a^T.
    """
    a = _check_unit_interval(a)
    if truncation_order < 1:
        raise ValueError("truncation_order must be >= 1")
    one_minus = 1.0 - a * a
    coeffs = [complex(a)]
    coeffs += [complex(one_minus * (-a) ** (s - 1)) for s in range(1, truncation_order + 1)]
    bound = one_minus * a**truncation_order
    return CoefficientSeries(coeffs, bound, Certificate.SCHUR_EXACT)


def mobius_minus_series(a: float, truncation_order: int) -> CoefficientSeries:
    """Coefficients of ``lam -> (lam - a) / (1 - a*lam)``: c_0 = -a, c_s = (1-a^2) a^(s-1)."""
    a = _check_unit_interval(a)
    if truncation_order < 1:
        raise ValueError("truncation_order must be >= 1")
    one_minus = 1.0 - a * a
    coeffs = [complex(-a)]
    coeffs += [complex(one_minus * a ** (s - 1)) for s in range(1, truncation_order + 1)]
    bound = one_minus * a**truncation_order
    return CoefficientSeries(coeffs, bound, Certificate.SCHUR_EXACT)


def schur_from_parameters(
    gamma: Sequence[complex], truncation_order: int
) -> CoefficientSeries:
    """Taylor coefficients of the disk self-map with the given Schur parameters.

    The function is defined by the continued-fraction recursion

        f_k(lam) = (g_k + lam f_{k+1}(lam)) / (1 + conj(g_k) lam f_{k+1}(lam)),

    with f past the last parameter identically 0, so an empty sequence gives
    the zero function and a single parameter ``(a,)`` gives the constant a.
    A unimodular parameter ends the recursion with that constant (the
    finite-Blaschke degenerate case); parameters beyond it are ignored.

    Parameters
    ----------
    gamma:
        Complex numbers with |g_k| <= 1.  Anything larger is rejected.
    truncation_order:
        Number of Taylor coefficients to return, minus one.

    Returns
    -------
    CoefficientSeries
        Exact-certificate series; ``coefficient_bound`` is 1 - |c_0|^2 in
        general and 0 when the parameters describe a constant.
    """
    if truncation_order < 0:
        raise ValueError("truncation_order must be >= 0")
    params: list[complex] = []
    base = 0j
    for g in gamma:
        g = complex(g)
        mag = abs(g)
        if mag > 1.0 + _DEGENERATE_TOL:
            raise ValueError(f"Schur parameter {g!r} lies outside the closed disk")
        if mag >= 1.0 - _DEGENERATE_TOL:
            base = g  # recursion terminates at a unimodular constant
            break
        params.append(g)

    T = truncation_order
    # Accumulate f = A/B with only shift-and-add updates, then divide once.
    # B(0) stays 1 throughout, so the division is well posed.  A unimodular
    # terminator counts as one more step; each step raises the degrees of A
    # and B by at most one, so both fit in ``width`` coefficients and the
    # division only runs over the band j <= d where B_j can be nonzero.
    count = len(params) + (base != 0)
    width = min(max(count, 1), T + 1)
    d = width - 1
    A = [0j] * width
    B = [0j] * width
    A[0] = base
    B[0] = 1.0 + 0j
    for g in reversed(params):
        gc = g.conjugate()
        shifted = [0j] + A[:-1]
        A = [g * b + sh for b, sh in zip(B, shifted)]
        B = [b + gc * sh for b, sh in zip(B, shifted)]

    coeffs = A + [0j] * (T + 1 - width)
    for k in range(1, T + 1):
        acc = coeffs[k]
        for j in range(1, min(k, d) + 1):
            acc -= B[j] * coeffs[k - j]
        coeffs[k] = acc

    if params:
        constant = base == 0 and all(g == 0 for g in params[1:])
    else:
        constant = True  # empty list or an immediate unimodular parameter
    c0 = abs(coeffs[0])
    bound = 0.0 if constant else max(0.0, min(1.0, 1.0 - c0 * c0))
    if constant:
        coeffs = coeffs[:1]
    return CoefficientSeries(coeffs, bound, Certificate.SCHUR_EXACT)


def lacunary_expand(m: int, p: int, g: CoefficientSeries) -> CoefficientSeries:
    """Embed ``g`` on the support ``{s*p + m}``: the expansion of lam^m g(lam^p).

    The expansion of ``LacunarySeries(m, p, g)``, which checks the shape; see
    :meth:`LacunarySeries.expand`.
    """
    return LacunarySeries(m, p, g).expand()


def tail_bound(series: CoefficientSeries, r: float, weight: TailWeight) -> float:
    """Certified upper bound on the tail dropped beyond the truncation order.

    The formulas are those of :func:`weighted_tail`, applied to the series'
    coefficient bound and truncation order.
    """
    if not 0.0 <= r < 1.0:  # also rejects NaN
        raise RadiusError(f"tail bounds require 0 <= r < 1, got {r!r}")
    b = series.coefficient_bound
    if b == 0.0 or r == 0.0:
        return 0.0
    return weighted_tail(b, r, series.truncation_order, TailWeight(weight))


def weighted_tail(bound, r: float, T: int, weight: TailWeight):
    """Tail beyond order ``T`` of coefficients bounded by ``bound`` (a float or array).

    With b = bound and x = r^2:

    * LINEAR:  b r^(T+1) / (1 - r)
    * SQUARED: b^2 x^(T+1) / (1 - x)
    * S_STAR:  b^2 x^(T+1) ((T+1) - T x) / (1 - x)^2

    the last being the closed form of ``sum_{s>T} s x^s`` scaled by b^2.
    The radius is the caller's to check: 0 <= r < 1.
    """
    if weight is TailWeight.LINEAR:
        return bound * r ** (T + 1) / (1.0 - r)
    x = r * r
    xpow = x ** (T + 1)
    if weight is TailWeight.SQUARED:
        return bound * bound * xpow / (1.0 - x)
    return bound * bound * xpow * ((T + 1) - T * x) / (1.0 - x) ** 2


def truncation_cap() -> int:
    """Hard cap on truncation orders; override with BOHRLAB_MAX_TRUNC."""
    raw = os.environ.get(_TRUNCATION_CAP_ENV)
    if raw is None:
        return _DEFAULT_TRUNCATION_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{_TRUNCATION_CAP_ENV} must be a positive integer")
    return cap


def default_truncation(r: float) -> int:
    """Smallest truncation order whose LINEAR tail at ``r`` is below TAIL_TARGET.

    The tail is that of coefficients bounded by 1, r^(T+1) / (1 - r).  ``r``
    must pass the evaluation-radius rule (RadiusError otherwise), so a
    radius near 1 is refused rather than served with an enormous order; the
    result is clamped to :func:`truncation_cap`.
    """
    r = _check_radius(r)
    if r == 0.0:
        return 1
    # r^(T+1) / (1-r) <= TAIL_TARGET
    needed = math.log(TAIL_TARGET * (1.0 - r)) / math.log(r)
    T = max(1, math.ceil(needed) - 1)
    while r ** (T + 1) / (1.0 - r) > TAIL_TARGET:
        T += 1
    return min(T, truncation_cap())


def boundary_supremum(
    series: CoefficientSeries, r: float, samples: int = 256
) -> float:
    """Max of the partial sum over ``samples`` equispaced points on |lam| = r."""
    if samples < 1:
        raise ValueError("need at least one sample")
    best = 0.0
    for k in range(samples):
        lam = r * complex(math.cos(2.0 * math.pi * k / samples),
                          math.sin(2.0 * math.pi * k / samples))
        best = max(best, abs(series(lam)))
    return best


def certify_by_sampling(
    series: CoefficientSeries, r: float = 0.99, samples: int = 256
) -> CoefficientSeries:
    """Upgrade an UNKNOWN series to SCHUR_SAMPLED after dense boundary sampling.

    The check is |partial sum| <= 1 + LINEAR tail + 1e-12 at every sample; it
    cannot prove membership, only record sampled evidence.
    """
    sup = boundary_supremum(series, r, samples)
    allowance = 1.0 + tail_bound(series, r, TailWeight.LINEAR) + 1e-12
    if sup > allowance:
        raise ValueError(
            f"boundary samples reach {sup!r} > {allowance!r}; series is not "
            "certifiable as a disk self-map"
        )
    if series.certificate is Certificate.SCHUR_EXACT:
        return series
    return series.with_certificate(Certificate.SCHUR_SAMPLED)


def series_to_json(obj: CoefficientSeries | LacunarySeries) -> dict:
    """JSON object ``{m, p, coeffs, bound, certificate}``; plain series use m=0, p=1."""
    if isinstance(obj, LacunarySeries):
        m, p, series = obj.m, obj.p, obj.g
    else:
        m, p, series = 0, 1, obj
    return {
        "m": m,
        "p": p,
        "coeffs": [[c.real, c.imag] for c in series.coeffs],
        "bound": series.coefficient_bound,
        "certificate": series.certificate.value,
    }


def series_from_json(data: dict) -> LacunarySeries:
    """Inverse of :func:`series_to_json`; a plain series comes back as m=0, p=1."""
    try:
        m = json_int(data["m"], "m")
        p = json_int(data["p"], "p")
        pairs = data["coeffs"]
        if set(map(len, pairs)) - {2}:
            raise ValueError("each coefficient must be a [re, im] pair")
        # complex(re, im) rejects a string, null or list part (TypeError) and
        # an integer too large for a double (OverflowError).
        coeffs = np.fromiter(itertools.starmap(complex, pairs), dtype=np.complex128)
        bound = json_number(data["bound"], "bound")
        certificate = Certificate(data["certificate"])
        g = CoefficientSeries(coeffs, bound, certificate)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed series object: {exc}") from exc
    return LacunarySeries(m, p, g)


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a float, string or bool is refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number; a string or bool is refused."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _check_unit_interval(a: float) -> float:
    a = float(a)
    if not 0.0 <= a < 1.0:
        raise ValueError(f"parameter a must lie in [0, 1), got {a!r}")
    return a
