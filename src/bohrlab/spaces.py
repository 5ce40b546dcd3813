"""Finite-dimensional l^q models of the vector-valued setting.

Everything the vector-valued inequalities need reduces to a scalar slice:
fix a unit direction ``omega``, restrict the mapping to the disk through it,
and read off coefficient moduli.  This module supplies the three structured
mapping forms used by those inequalities, the norm-one support functionals
``T_x`` (with ``T_x(x) = ||x||``), and the reduction itself, which always
produces a :class:`~bohrlab.series.CoefficientSeries`.

Support functionals are unique only for q in (1, inf); at the endpoints we
fix one admissible Hahn-Banach selection and document it on
:func:`support_functional`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .series import CoefficientSeries, json_int, json_number, series_from_json, series_to_json

__all__ = [
    "BanachFunction",
    "MappingForm",
    "SpaceSpec",
    "banach_from_json",
    "banach_to_json",
    "lq_norm",
    "slice_series",
    "support_functional",
]

_UNIT_TOL = 1e-12
#: The smallest normal double; 1/x overflows below it.
_NORMAL = 2.0**-1022


@dataclass(frozen=True)
class SpaceSpec:
    """Dimension and norm exponent of one l^q space; ``q = math.inf`` is the sup norm."""

    dim: int
    q: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not (self.q >= 1.0):
            raise ValueError("norm exponent q must satisfy q >= 1")


class MappingForm(str, Enum):
    """The structured holomorphic-mapping forms supported on the ball."""

    SCALAR_COMPOSITE = "SCALAR_COMPOSITE"  # f(z) = h(T_u(z))
    VECTOR_VALUED = "VECTOR_VALUED"        # f(z) = h(T_u(z)) * dir
    Z_TIMES_SCALAR = "Z_TIMES_SCALAR"      # f(z) = z * h(T_u(z))


def lq_norm(v: Sequence[complex], spec: SpaceSpec) -> float:
    vec = _as_vector(v, spec)
    mags = np.abs(vec)
    if math.isinf(spec.q):
        return float(mags.max())
    return float((mags**spec.q).sum() ** (1.0 / spec.q))


def support_functional(x: Sequence[complex], spec: SpaceSpec) -> np.ndarray:
    """Coefficients ``w`` of a norm-one functional with ``sum(w*x) = ||x||``.

    For q in (1, inf): w_j = conj(sgn(x_j)) (|x_j| / ||x||)^(q-1), which has
    dual norm exactly one.  The endpoint selections are:

    * q = 1:   w_j = conj(sgn(x_j)) on the support of x, 0 elsewhere;
    * q = inf: mass on the first index attaining the maximum modulus.
    """
    vec = _as_vector(x, spec)
    mags = np.abs(vec)
    if not mags.any():
        raise ValueError("support functionals are defined for nonzero vectors only")
    w = np.zeros_like(vec)
    if math.isinf(spec.q):
        j = int(np.argmax(mags))
        w[j] = np.conj(vec[j] / mags[j])
        return w
    nz = mags > 0.0
    w[nz] = np.conj(_unit_phase(vec[nz], mags[nz]))
    if spec.q != 1.0:
        w[nz] *= (mags[nz] / lq_norm(vec, spec)) ** (spec.q - 1.0)
    return w


def _unit_phase(z: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """``z / |z|`` for nonzero entries, rounded as numpy's ``z / mags``.

    numpy divides a complex by a real as a product with the reciprocal, and
    1/|z| overflows for a subnormal |z|.  Scaling z and |z| by a power of two
    is exact and leaves that product's rounding unchanged, so subnormal
    moduli are scaled into the normal range first.
    """
    tiny = mags < _NORMAL
    if tiny.any():
        z = np.where(tiny, z * 2.0**64, z)
        mags = np.where(tiny, mags * 2.0**64, mags)
    return z / mags


def dual_exponent(q: float) -> float:
    if math.isinf(q):
        return 1.0
    if q == 1.0:
        return math.inf
    return q / (q - 1.0)


@dataclass(frozen=True)
class BanachFunction:
    """One structured mapping on the unit ball, sliceable to a scalar series.

    ``u`` is the unit vector whose support functional feeds the scalar profile
    ``h``; ``direction`` is the unit target vector of the VECTOR_VALUED form.
    The Z_TIMES_SCALAR form automatically vanishes at 0, matching the
    hypothesis of the norm-type inequalities.
    """

    form: MappingForm
    space: SpaceSpec
    u: tuple[complex, ...]
    profile: CoefficientSeries
    target: SpaceSpec | None = None
    direction: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        form = MappingForm(self.form)
        object.__setattr__(self, "form", form)
        u = tuple(complex(c) for c in self.u)
        object.__setattr__(self, "u", u)
        if not abs(lq_norm(u, self.space) - 1.0) <= _UNIT_TOL:  # NaN fails too
            raise ValueError("u must be a unit vector of its space")
        if form is MappingForm.VECTOR_VALUED:
            if self.direction is None:
                raise ValueError("VECTOR_VALUED mappings need a target direction")
            target = self.target if self.target is not None else self.space
            object.__setattr__(self, "target", target)
            direction = tuple(complex(c) for c in self.direction)
            object.__setattr__(self, "direction", direction)
            if not abs(lq_norm(direction, target) - 1.0) <= _UNIT_TOL:
                raise ValueError("direction must be a unit vector of the target space")
        elif self.direction is not None:
            raise ValueError(f"{form.value} mappings take no target direction")


def slice_series(
    f: BanachFunction,
    omega: Sequence[complex],
    functional_direction: Sequence[complex] | None = None,
) -> CoefficientSeries:
    """Scalar series of the restriction of ``f`` to the disk through ``omega``.

    With ``beta = T_u(omega)``:

    * SCALAR_COMPOSITE: coefficients ``h_s beta^s``.
    * VECTOR_VALUED: the same scaled by ``tau = T_v(direction)`` where ``v``
      is ``functional_direction`` (default: ``direction`` itself, so tau = 1).
    * Z_TIMES_SCALAR: the shifted sequence ``0, h_0, h_1 beta, ...`` whose
      moduli are the term norms ``||D^k f(0)(omega^k)|| / k!``.

    The result keeps the profile's certificate: |beta| <= 1 and |tau| <= 1,
    so boundedness by 1 survives the reduction.
    """
    omega_vec = _as_vector(omega, f.space)
    if not abs(lq_norm(omega_vec, f.space) - 1.0) <= 1e-9:
        raise ValueError("slices are taken through unit vectors")
    w = support_functional(np.asarray(f.u, dtype=complex), f.space)
    beta = complex(np.dot(w, omega_vec))
    h = f.profile

    scale = 1.0 + 0j
    if f.form is MappingForm.VECTOR_VALUED:
        v = f.direction if functional_direction is None else tuple(functional_direction)
        wv = support_functional(np.asarray(v, dtype=complex), f.target)
        scale = complex(np.dot(wv, np.asarray(f.direction, dtype=complex)))
    elif functional_direction is not None:
        raise ValueError("functional directions apply to VECTOR_VALUED mappings only")

    beta_mag = min(abs(beta), 1.0)
    bound = h.coefficient_bound * beta_mag ** (h.truncation_order + 1)
    # beta^s in polar form on arrays; Python's complex power uses the same
    # form past s = 100 (and repeated squaring below it).
    s = np.arange(h.truncation_order + 1)
    phase = math.atan2(beta.imag, beta.real) * s
    powers = abs(beta) ** s * (np.cos(phase) + 1j * np.sin(phase))
    if f.form is MappingForm.Z_TIMES_SCALAR:
        coeffs = np.concatenate(([0j], h.coeffs_array * powers))
    else:
        coeffs = scale * h.coeffs_array * powers
    return CoefficientSeries(coeffs, bound, h.certificate)


def banach_to_json(f: BanachFunction) -> dict:
    data = {
        "form": f.form.value,
        "space": {"n": f.space.dim, "q": _q_to_json(f.space.q)},
        "u": [[c.real, c.imag] for c in f.u],
        "h": series_to_json(f.profile),
    }
    if f.form is MappingForm.VECTOR_VALUED:
        data["target"] = {"n": f.target.dim, "q": _q_to_json(f.target.q)}
        data["dir"] = [[c.real, c.imag] for c in f.direction]
    return data


def banach_from_json(data: dict) -> BanachFunction:
    try:
        form = MappingForm(data["form"])
        space = SpaceSpec(json_int(data["space"]["n"], "space.n"),
                          _q_from_json(data["space"]["q"], "space.q"))
        u = tuple(complex(re, im) for re, im in data["u"])
        profile_obj = series_from_json(data["h"])
        target = None
        direction = None
        if form is MappingForm.VECTOR_VALUED:
            raw_target = data.get("target", data["space"])
            target = SpaceSpec(json_int(raw_target["n"], "target.n"),
                               _q_from_json(raw_target["q"], "target.q"))
            direction = tuple(complex(re, im) for re, im in data["dir"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed mapping object: {exc}") from exc
    profile = profile_obj.expand()
    return BanachFunction(form, space, u, profile, target, direction)


def _q_to_json(q: float):
    return "inf" if math.isinf(q) else q


def _q_from_json(raw, name: str) -> float:
    return math.inf if raw == "inf" else json_number(raw, name)


def _as_vector(v: Sequence[complex], spec: SpaceSpec) -> np.ndarray:
    vec = np.asarray(v, dtype=complex)
    if vec.shape != (spec.dim,):
        raise ValueError(f"expected a vector of dimension {spec.dim}, got shape {vec.shape}")
    return vec


def unit_vector(v: Sequence[complex], spec: SpaceSpec) -> tuple[complex, ...]:
    """Normalize ``v`` in the given norm; convenience for building test mappings."""
    vec = np.asarray(v, dtype=complex)
    nrm = lq_norm(vec, spec)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(vec / nrm)
