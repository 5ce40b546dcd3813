"""Radius-defining equations and certified root isolation on (0, 1).

Each inequality in the package comes with a scalar equation whose maximal
(or unique) root in (0, 1) is the sharp radius.  The polynomial kinds are
kept as explicit (coefficient, exponent) term lists; the two rational kinds
get closed-form values.

Root isolation is deliberately elementary: a uniform grid scan collects
sign-change brackets, bisection refines each bracket, and every candidate
must pass the residual certificate |value(root)| <= 1e-10 before it counts.
Three kinds collapse to exact perfect squares when m = 0, whose roots are
double and show no sign change; those are isolated on the exact square
root's terms instead, and certified on the full equation the same way.

The grid scan of a polynomial kind is one numpy array; its bisection steps
and residual certificates sum the terms in plain Python floats, since numpy
costs about ten times the arithmetic on a single value.  The rational kinds
and :func:`equation_value` stay on numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "NoRootError",
    "PARAMETER_CAP",
    "RESIDUAL_TOL",
    "RadiusEquation",
    "RadiusKind",
    "equation_value",
    "maximal_root",
    "star_equivalence_check",
    "unique_root",
]

#: Integer parameters are capped to keep r^(2N) well inside double range.
PARAMETER_CAP = 64

#: Residual certificate every returned root must satisfy.
RESIDUAL_TOL = 1e-10

_GRID_STEP = 1e-4
_BISECT_WIDTH = 1e-14


class NoRootError(ValueError):
    """No certifiable root was found in (0, 1); signals parameter misuse."""


class RadiusKind(str, Enum):
    R_PM = "R_PM"                # plain lacunary radius (background)
    R_STAR_NM = "R_STAR_NM"      # gap-series radius, piecewise system
    R_DSTAR_NM = "R_DSTAR_NM"    # gap-series radius, single equation
    R_TSTAR_PM = "R_TSTAR_PM"    # refined lacunary radius
    ROG_NPM = "ROG_NPM"          # center term composed with an order-m map
    ROG_NP = "ROG_NP"            # limit of ROG_NPM as the order grows


@dataclass(frozen=True)
class RadiusEquation:
    """One radius equation with its validated integer/real parameters."""

    kind: RadiusKind
    p: int | None = None
    m: int | None = None
    n: int | None = None
    p_exp: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", RadiusKind(self.kind))
        k = self.kind
        if k in (RadiusKind.R_PM, RadiusKind.R_TSTAR_PM):
            _check_int("p", self.p, 1)
            _check_int("m", self.m, 0)
            if self.m > self.p:
                raise ValueError("these kinds require 0 <= m <= p")
            if self.n is not None or self.p_exp is not None:
                raise ValueError(f"{k.value} takes parameters (p, m) only")
        elif k in (RadiusKind.R_STAR_NM, RadiusKind.R_DSTAR_NM):
            _check_int("m", self.m, 0)
            _check_int("n", self.n, 1)
            if self.n < self.m + 1:
                raise ValueError("these kinds require N >= m + 1")
            if self.p is not None or self.p_exp is not None:
                raise ValueError(f"{k.value} takes parameters (N, m) only")
        elif k is RadiusKind.ROG_NPM:
            _check_int("n", self.n, 1)
            _check_int("m", self.m, 1)
            _check_p_exp(self.p_exp)
            if self.p is not None:
                raise ValueError("ROG_NPM takes (N, p_exp, m)")
        else:  # ROG_NP
            _check_int("n", self.n, 1)
            _check_p_exp(self.p_exp)
            if self.p is not None or self.m is not None:
                raise ValueError("ROG_NP takes (N, p_exp)")

    # -- constructors named by role ------------------------------------
    @classmethod
    def lacunary(cls, p: int, m: int) -> "RadiusEquation":
        return cls(RadiusKind.R_PM, p=p, m=m)

    @classmethod
    def refined_lacunary(cls, p: int, m: int) -> "RadiusEquation":
        return cls(RadiusKind.R_TSTAR_PM, p=p, m=m)

    @classmethod
    def gap_piecewise(cls, n: int, m: int) -> "RadiusEquation":
        return cls(RadiusKind.R_STAR_NM, n=n, m=m)

    @classmethod
    def gap(cls, n: int, m: int) -> "RadiusEquation":
        return cls(RadiusKind.R_DSTAR_NM, n=n, m=m)

    @classmethod
    def rogosinski(cls, n: int, p_exp: float, m: int) -> "RadiusEquation":
        return cls(RadiusKind.ROG_NPM, n=n, m=m, p_exp=p_exp)

    @classmethod
    def rogosinski_limit(cls, n: int, p_exp: float) -> "RadiusEquation":
        return cls(RadiusKind.ROG_NP, n=n, p_exp=p_exp)

    def is_rational(self) -> bool:
        return self.kind in (RadiusKind.ROG_NPM, RadiusKind.ROG_NP)


def _check_int(name: str, value, minimum: int) -> None:
    if value is None or not isinstance(value, int):
        raise ValueError(f"parameter {name} must be an integer")
    if value < minimum:
        raise ValueError(f"parameter {name} must satisfy {name} >= {minimum}, got {value}")
    if value > PARAMETER_CAP:
        raise ValueError(f"parameter {name} exceeds the cap {PARAMETER_CAP}")


def _check_p_exp(p_exp) -> None:
    if p_exp is None or not 0.0 < float(p_exp) <= 2.0:
        raise ValueError("the center exponent must lie in (0, 2]")


def _polynomial_terms(eq: RadiusEquation) -> list[tuple[float, int]]:
    """(coefficient, exponent) list of the defining polynomial equation."""
    k, p, m, n = eq.kind, eq.p, eq.m, eq.n
    if k is RadiusKind.R_PM:
        return [(1.0, 2 * (p - m)), (-6.0, p - m), (8.0, 2 * p), (1.0, 0)]
    if k is RadiusKind.R_TSTAR_PM:
        return [(5.0, 2 * p + m), (-2.0, p + m), (1.0, m), (4.0, 2 * p), (-4.0, p)]
    if k is RadiusKind.R_DSTAR_NM:
        return [
            (4.0, 2 * n - m),
            (4.0, n + 1 - m),
            (-4.0, n - m),
            (1.0, m + 2),
            (-2.0, m + 1),
            (1.0, m),
        ]
    if k is RadiusKind.R_STAR_NM:
        if m == 0:
            return [(2.0, n), (1.0, 1), (-1.0, 0)]
        if n > 2 * m:
            return [
                (4.0, 2 * (n - m)),
                (4.0, n + 1 - 2 * m),
                (-4.0, n - 2 * m),
                (1.0, 2),
                (-2.0, 1),
                (1.0, 0),
            ]
        # m + 1 <= N <= 2m
        return [
            (4.0, n),
            (1.0, 2 + 2 * m - n),
            (-2.0, 1 + 2 * m - n),
            (1.0, 2 * m - n),
            (4.0, 1),
            (-4.0, 0),
        ]
    raise ValueError(f"{k.value} is not polynomial")


def _isolation_terms(eq: RadiusEquation) -> list[tuple[float, int]]:
    """Terms with the equation's roots in (0, 1), perfect squares square-rooted.

    At m = 0 the lacunary kinds are (3r^p - 1)^2 and the single gap equation
    is (2r^N + r - 1)^2, the square of R_STAR_NM(N, 0); every other
    polynomial equation isolates on its own terms.
    """
    if eq.m == 0:
        if eq.kind in (RadiusKind.R_PM, RadiusKind.R_TSTAR_PM):
            return [(3.0, eq.p), (-1.0, 0)]
        if eq.kind is RadiusKind.R_DSTAR_NM:
            return [(2.0, eq.n), (1.0, 1), (-1.0, 0)]
    return _polynomial_terms(eq)


def _terms_value(terms: list[tuple[float, int]], r):
    """Sum of coef * r**exp over the terms, for a float or a numpy array ``r``."""
    return sum(coef * r**exp for coef, exp in terms)


def equation_value(eq: RadiusEquation, r: float):
    """Left side of the defining equation at ``r`` in (0, 1); accepts arrays."""
    scalar = np.ndim(r) == 0
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("equations are evaluated on the open interval (0, 1)")
    if eq.kind is RadiusKind.ROG_NPM:
        rm = arr**eq.m
        out = eq.p_exp * (1.0 - rm) / (1.0 + rm) - 2.0 * arr**eq.n / (1.0 - arr)
    elif eq.kind is RadiusKind.ROG_NP:
        out = 2.0 * arr**eq.n - eq.p_exp * (1.0 - arr)
    else:
        out = _terms_value(_polynomial_terms(eq), arr)
    return float(out) if scalar else out


def maximal_root(eq: RadiusEquation) -> float:
    """Largest certified root of the equation in (0, 1).

    Scans a uniform grid of step 1e-4 with the isolation terms (the exact
    square root of the m = 0 perfect squares, else the equation's own
    terms) and refines every sign-change bracket by bisection on the same
    terms, in floats.  Every candidate must satisfy |value| <= RESIDUAL_TOL
    on the full equation's terms, and the isolation terms carry no grid sign
    change above the returned root.
    """
    if eq.is_rational():
        return unique_root(eq)
    terms = _isolation_terms(eq)
    grid = np.arange(1, round(1.0 / _GRID_STEP)) * _GRID_STEP
    vals = _terms_value(terms, grid)
    fn = lambda r: _terms_value(terms, r)  # noqa: E731

    candidates = [float(grid[i]) for i in np.nonzero(vals == 0.0)[0]]
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    for i in flips:
        candidates.append(_bisect(fn, float(grid[i]), float(grid[i + 1])))

    full = _polynomial_terms(eq)
    certified = [r for r in candidates if abs(_terms_value(full, r)) <= RESIDUAL_TOL]
    if not certified:
        raise NoRootError(f"no certifiable root in (0, 1) for {eq}")
    root = max(certified)

    above = signs[grid > root + _GRID_STEP]
    nonzero = above[above != 0.0]
    if nonzero.size and np.any(nonzero[:-1] * nonzero[1:] < 0):
        raise NoRootError(f"maximality certificate failed for {eq}")
    return root


def unique_root(eq: RadiusEquation) -> float:
    """Root of a rational kind by global bisection; both sides are monotone.

    The composed kind's left side decreases from p_exp at 0+ to -inf at 1-;
    the limit kind's increases from -p_exp to 2.  The bracket is
    [1e-9, 1 - 1e-12]; a root below it (only for p_exp under about
    2e-9 * 1e-9^(N-1)) is bisected on (0, 1e-9] from the limit at 0+, to a
    width of 1e-14 relative to the upper end.  Certified like
    :func:`maximal_root`.
    """
    if not eq.is_rational():
        raise ValueError("unique_root applies to the rational kinds only")
    fn = lambda r: equation_value(eq, r)  # noqa: E731
    lo, hi = 1e-9, 1.0 - 1e-12
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    at_zero = eq.p_exp if eq.kind is RadiusKind.ROG_NPM else -eq.p_exp
    if (flo < 0.0) != (at_zero < 0.0):
        root = _bisect(fn, 0.0, lo, flo=at_zero, relative=True)
    elif flo * fhi > 0.0:
        raise NoRootError(f"no sign change on (0, 1) for {eq}")
    else:
        root = _bisect(fn, lo, hi)
    if abs(fn(root)) > RESIDUAL_TOL:
        raise NoRootError(f"residual certificate failed for {eq}")
    return root


def star_equivalence_check(n: int, m: int) -> float:
    """|r*_{N,m} - r**_{N,m}|: distance between the piecewise and single-equation roots."""
    star = maximal_root(RadiusEquation.gap_piecewise(n, m))
    dstar = maximal_root(RadiusEquation.gap(n, m))
    return abs(star - dstar)


def _bisect(fn: Callable[[float], float], lo: float, hi: float, *,
            flo: float | None = None, relative: bool = False) -> float:
    """Bisect a sign change of ``fn`` on [lo, hi] to width _BISECT_WIDTH.

    ``flo`` stands in for fn(lo) where fn cannot be evaluated at lo (a limit
    at 0+); with ``relative`` the width is _BISECT_WIDTH * hi.
    """
    if flo is None:
        flo = fn(lo)
        if flo == 0.0:
            return lo
    while hi - lo > _BISECT_WIDTH * (hi if relative else 1.0):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval is at floating-point resolution
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
