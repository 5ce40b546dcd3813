"""The three benchmark workloads: inputs built from a seed, timed ops, checks.

Every op is a call into bohrlab's public entry points.  The functions are
looked up on their modules (``harness.random_campaign``, ``cli.main``, ...)
at call time, so the tracer's wrappers see every call.

* ``campaign``: ``random_campaign`` over every kind of the selftest safety
  suite, 10,000 trials each at the theorem radius (selftest criterion 4).
  One op is one kind's campaign.  The seed offsets the per-kind seeds; seed 0
  is criterion 4 itself.
* ``radii``: root isolation for every equation of the
  ``bohrlab radii --p-max 16 --m-max 16 --n-max 32`` table (2,208 roots) plus
  the rational kinds at one extra ``p_exp`` drawn from the seed (544 roots).
  One op is one root.
* ``verify``: in-process ``cli.main`` calls on seeded function files
  (``verify`` at single radii and 100-point ``sweep``s), campaign replays
  evaluated at the theorem radius, ``empirical_radius`` on both proof
  extremals, and the criterion-5 sharpness witnesses.  One op is one call.

The seed changes values, never sizes: every seed runs the same number of ops
of the same truncation orders, so run times are comparable across seeds.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bohrlab import cli, harness, radii, series
from bohrlab.functionals import FunctionalKind
from bohrlab.radii import RadiusEquation
from bohrlab.selftest import _SAFETY_SUITE

WORKLOADS = ("campaign", "radii", "verify")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Absolute tolerance of values, margins and roots against the reference.
TOL = 1e-9
#: Empirical crossings are bisected down to width 1e-9.
CROSSING_TOL = 1e-8

CAMPAIGN_TRIALS = 10_000
RADII_CAPS = (16, 16, 32)  # --p-max, --m-max, --n-max of the radii table
RESIDUAL_TOL = 1e-10
SWEEP_GRID = "0.05:0.9:100"
VERIFY_CALLS_PER_FILE = 36
REPLAYS_PER_KIND = 4
SCHUR_ORDERS = (600, 1500, 600, 1500, 600, 1500)


@dataclass(frozen=True)
class CliResult:
    status: int
    text: str


@dataclass(frozen=True)
class Op:
    """One timed call; ``digest`` and ``check`` run outside the timed region."""

    key: str
    run: Callable[[], object]
    check: Callable[[dict], bool]
    digest: Callable[[object], dict] = lambda raw: raw
    tol: float = TOL


def build(workload: str, seed: int, work_dir: Path) -> list[Op]:
    """The workload's ops for ``seed``; ``verify`` writes its files to ``work_dir``."""
    if workload == "campaign":
        return campaign_ops(seed)
    if workload == "radii":
        return radii_ops(seed)
    if workload == "verify":
        return verify_ops(seed, work_dir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warm_up(workload: str, ops: list[Op]) -> None:
    """Run a small slice of the workload so lazy set-up is not timed."""
    if workload == "campaign":
        for kind, base in _SAFETY_SUITE:
            harness.random_campaign(kind, 100, base)
        return
    for op in ops[:: max(1, len(ops) // 40)]:
        try:
            op.run()
        except Exception:  # the timed passes record and count this op's failure
            pass


# --------------------------------------------------------------- campaign ---


def campaign_ops(seed: int) -> list[Op]:
    return [
        Op(kind.label(), functools.partial(_campaign, kind, base + seed), _campaign_ok)
        for kind, base in _SAFETY_SUITE
    ]


def _campaign(kind: FunctionalKind, seed: int) -> dict:
    return harness.random_campaign(kind, CAMPAIGN_TRIALS, seed).to_json()


def _campaign_ok(out: dict) -> bool:
    return out["trials"] == CAMPAIGN_TRIALS and out["max_value"] <= 1.0


# ------------------------------------------------------------------ radii ---


def radius_equations(seed: int) -> list[RadiusEquation]:
    """The radii table's equations, then the rational kinds at a seeded p_exp."""
    p_max, m_max, n_max = RADII_CAPS
    eqs = []
    for p in range(1, p_max + 1):
        for m in range(0, min(p, m_max) + 1):
            eqs.append(RadiusEquation.lacunary(p, m))
            eqs.append(RadiusEquation.refined_lacunary(p, m))
    for m in range(0, m_max + 1):
        for n in range(m + 1, n_max + 1):
            eqs.append(RadiusEquation.gap_piecewise(n, m))
            eqs.append(RadiusEquation.gap(n, m))
    extra = float(np.random.default_rng([seed, 2]).uniform(0.25, 2.0))
    for p_exp in (1.0, 2.0, extra):
        for m in range(1, m_max + 1):
            for n in range(1, n_max + 1):
                eqs.append(RadiusEquation.rogosinski(n, p_exp, m))
        for n in range(1, n_max + 1):
            eqs.append(RadiusEquation.rogosinski_limit(n, p_exp))
    return eqs


def radii_ops(seed: int) -> list[Op]:
    return [
        Op(":".join("" if v is None else str(v) for v in (eq.kind.value, eq.p, eq.m, eq.n, eq.p_exp)),
           functools.partial(_root, eq), functools.partial(_root_ok, eq))
        for eq in radius_equations(seed)
    ]


def _root(eq: RadiusEquation) -> dict:
    finder = radii.unique_root if eq.is_rational() else radii.maximal_root
    return {"root": finder(eq)}


# Bound before any tracer is installed, so checking a root adds no traced calls.
_equation_value = radii.equation_value


def _root_ok(eq: RadiusEquation, out: dict) -> bool:
    root = out["root"]
    return 0.0 < root < 1.0 and abs(_equation_value(eq, root)) <= RESIDUAL_TOL


# ----------------------------------------------------------------- verify ---

_PLAIN_KINDS = (
    ("--kind", "A_PM", "--p", "1", "--m", "0"),
    ("--kind", "D_NM", "--n", "1", "--m", "0"),
    ("--kind", "H_PN", "--p-exp", "1.0", "--n", "1"),
    ("--kind", "H_PN", "--p-exp", "2.0", "--n", "3"),
    ("--kind", "G_MPN", "--m", "1", "--p-exp", "1.0", "--n", "2"),
    ("--kind", "G_MPN", "--m", "2", "--p-exp", "2.0", "--n", "3"),
    ("--kind", "I_M", "--d", "0.8888888888888888"),
    ("--kind", "I_M", "--d", "0.4,0.5"),
    ("--kind", "LEMMA_TAIL", "--n", "2"),
)


def _lacunary_kinds(m: int, p: int) -> tuple[tuple[str, ...], ...]:
    return (
        ("--kind", "A_PM", "--p", str(p), "--m", str(m)),
        ("--kind", "D_NM", "--n", str(m + 1), "--m", str(m)),
        ("--kind", "D_NM", "--n", str(m + p), "--m", str(m)),
        ("--kind", "H_PN", "--p-exp", "1.0", "--n", "1"),
        ("--kind", "G_MPN", "--m", "1", "--p-exp", "2.0", "--n", "2"),
        ("--kind", "I_M", "--d", "0.8888888888888888"),
        ("--kind", "LEMMA_TAIL", "--n", "3"),
    )


# (truncation order, Mobius maps mixed, certificate) of the plain files.  No
# file is a single Mobius map: those are the tail lemma's equality case, where
# roundoff alone decides the verdict.
_PLAIN_FILES = (
    (60, 2, "SCHUR_EXACT"), (60, 3, "SCHUR_EXACT"),
    (150, 2, "SCHUR_EXACT"), (150, 3, "UNKNOWN"),
    (400, 2, "SCHUR_EXACT"), (400, 3, "SCHUR_EXACT"),
    (900, 2, "SCHUR_EXACT"), (900, 2, "UNKNOWN"),
    (1500, 2, "SCHUR_EXACT"), (1500, 3, "SCHUR_EXACT"),
)
# (m, p, truncation order of g) of the lacunary files.
_LACUNARY_FILES = (
    (1, 2, 75), (1, 2, 450), (2, 3, 50), (2, 3, 300),
    (0, 2, 200), (0, 2, 700), (1, 1, 400), (1, 1, 1400),
)
# (form, dimension, q, truncation order of h) of the l^q ball-map files.
_BALL_FILES = (
    ("SCALAR_COMPOSITE", 2, 2.0, 100), ("SCALAR_COMPOSITE", 5, math.inf, 1000),
    ("VECTOR_VALUED", 3, 1.5, 400), ("VECTOR_VALUED", 2, 1.0, 1500),
    ("Z_TIMES_SCALAR", 3, 3.0, 150), ("Z_TIMES_SCALAR", 5, 2.0, 900),
    ("SCALAR_COMPOSITE", 3, 1.5, 600), ("VECTOR_VALUED", 5, 3.0, 250),
)

# Criterion 5's witnesses: sharpness at the sharp radius + 0.01 ...
_WITNESS_KINDS = (
    ("--kind", "A_PM", "--p", "1", "--m", "1"),
    ("--kind", "A_PM", "--p", "2", "--m", "1"),
    ("--kind", "A_PM", "--p", "1", "--m", "0"),
    ("--kind", "A_PM", "--p", "2", "--m", "0"),
    ("--kind", "D_NM", "--n", "2", "--m", "1"),
    ("--kind", "D_NM", "--n", "1", "--m", "0"),
    ("--kind", "G_MPN", "--m", "2", "--p-exp", "1.0", "--n", "2"),
    ("--kind", "G_MPN", "--m", "3", "--p-exp", "2.0", "--n", "1"),
    ("--kind", "H_PN", "--p-exp", "1.0", "--n", "1"),
    ("--kind", "H_PN", "--p-exp", "2.0", "--n", "1"),
    ("--kind", "I_M", "--d", "0.8888888888888888"),
)
# ... and the m = 0 branches at r = 1/3 + 0.01, which land on c + 1/(4c).
_BRANCH_R = 1.0 / 3.0 + 0.01
_BRANCH_KINDS = (
    ("--kind", "A_PM", "--p", "1", "--m", "0"),
    ("--kind", "D_NM", "--n", "1", "--m", "0"),
)


def _mobius_mix(rng: np.random.Generator, T: int, maps: int) -> tuple[np.ndarray, float]:
    """Taylor coefficients c_0..c_T of a convex combination of rotated Mobius maps.

    Each map is e^{i psi} phi_a(e^{i theta} z) with phi_a(z) = (a + z)/(1 + conj(a) z),
    whose coefficients are a and (1 - |a|^2)(-conj(a))^(s-1) e^{i s theta}.  A convex
    combination of disk self-maps is one, and every dropped coefficient is at most
    sum_i w_i (1 - |a_i|^2) |a_i|^T.
    """
    weights = rng.dirichlet(np.ones(maps))
    mags = 0.98 * np.sqrt(rng.random(maps))
    a = mags * np.exp(2j * np.pi * rng.random(maps))
    theta = 2.0 * np.pi * rng.random(maps)
    psi = 2.0 * np.pi * rng.random(maps)
    s = np.arange(1, T + 1)
    coeffs = np.zeros(T + 1, dtype=complex)
    bound = 0.0
    for w, ai, th, ps in zip(weights, a, theta, psi):
        scale = w * np.exp(1j * ps)
        coeffs[0] += scale * ai
        coeffs[1:] += scale * (1.0 - abs(ai) ** 2) * (-np.conj(ai)) ** (s - 1) * np.exp(1j * s * th)
        bound += w * (1.0 - abs(ai) ** 2) * abs(ai) ** T
    return coeffs, min(1.0, float(bound))


def _series_json(coeffs: np.ndarray, bound: float, m: int = 0, p: int = 1,
                 certificate: str = "SCHUR_EXACT") -> dict:
    return {
        "m": m,
        "p": p,
        "coeffs": [[float(c.real), float(c.imag)] for c in coeffs],
        "bound": bound,
        "certificate": certificate,
    }


def _unit(rng: np.random.Generator, dim: int, q: float) -> list[list[float]]:
    x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    mags = np.abs(x)
    norm = mags.max() if math.isinf(q) else (mags**q).sum() ** (1.0 / q)
    return [[float(c.real), float(c.imag)] for c in x / norm]


def write_function_files(seed: int, work_dir: Path) -> list[tuple[str, tuple]]:
    """Write the seeded function files; returns (path, applicable kinds) pairs."""
    rng = np.random.default_rng([seed, 3])
    work_dir.mkdir(parents=True, exist_ok=True)
    files: list[tuple[dict, tuple]] = []
    for T, maps, certificate in _PLAIN_FILES:
        coeffs, bound = _mobius_mix(rng, T, maps)
        files.append((_series_json(coeffs, bound, certificate=certificate), _PLAIN_KINDS))
    for m, p, T in _LACUNARY_FILES:
        coeffs, bound = _mobius_mix(rng, T, 2)
        files.append((_series_json(coeffs, bound, m, p), _lacunary_kinds(m, p)))
    for form, dim, q, T in _BALL_FILES:
        coeffs, bound = _mobius_mix(rng, T, 2)
        q_json = "inf" if math.isinf(q) else q
        data = {"form": form, "space": {"n": dim, "q": q_json},
                "u": _unit(rng, dim, q), "h": _series_json(coeffs, bound)}
        if form == "VECTOR_VALUED":
            data["dir"] = _unit(rng, dim, q)
        files.append((data, _PLAIN_KINDS))
    out = []
    for i, (data, kinds) in enumerate(files):
        path = work_dir / f"f{i:02d}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out.append((str(path), kinds))
    return out


def verify_ops(seed: int, work_dir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    ops: list[Op] = []
    files = write_function_files(seed, work_dir)
    for i, (path, kinds) in enumerate(files):
        for j in range(VERIFY_CALLS_PER_FILE):
            kind = kinds[j % len(kinds)]
            r = float(rng.uniform(0.05, 0.9))
            argv = ["verify", "--file", path, *kind, "--r", repr(r)]
            ops.append(Op(f"verify:f{i:02d}:{j}", functools.partial(_cli, argv),
                          _verify_ok, _verify_digest))
    for i, (path, kinds) in enumerate(files):
        argv = ["sweep", "--file", path, *kinds[i % len(kinds)], "--grid", SWEEP_GRID]
        ops.append(Op(f"sweep:f{i:02d}", functools.partial(_cli, argv),
                      _sweep_ok, _sweep_digest))
    for kind, base in _SAFETY_SUITE:
        for trial in rng.integers(0, CAMPAIGN_TRIALS, REPLAYS_PER_KIND):
            ops.append(Op(f"replay:{kind.label()}:{trial}",
                          functools.partial(_replay, kind, base + seed, int(trial)),
                          _replay_ok))
    gap = FunctionalKind.gap(1, 0)
    for i, T in enumerate(SCHUR_ORDERS):
        gamma = 0.98 * np.sqrt(rng.random(8)) * np.exp(2j * np.pi * rng.random(8))
        r = float(rng.uniform(0.1, 0.6))
        ops.append(Op(f"schur:{i}:T={T}",
                      functools.partial(_schur, gap, tuple(gamma), T, r), _schur_ok))
    for kind in (FunctionalKind.lacunary(2, 1), FunctionalKind.gap(2, 1)):
        ops.append(Op(f"crossing:{kind.label()}", functools.partial(_crossing, kind),
                      _crossing_ok, tol=CROSSING_TOL))
    for kind in _WITNESS_KINDS:
        ops.append(Op(f"witness:{' '.join(kind)}",
                      functools.partial(_cli, ["sharpness", *kind]),
                      _witness_ok, _witness_digest))
    for kind in _BRANCH_KINDS:
        ops.append(Op(f"branch:{' '.join(kind)}",
                      functools.partial(_cli, ["sharpness", *kind, "--r", repr(_BRANCH_R)]),
                      _branch_ok, _witness_digest))
    return ops


def _cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return CliResult(status, out.getvalue())


def _verify_digest(raw: CliResult) -> dict:
    report = json.loads(raw.text)
    return {
        "status": raw.status,
        "certified": report["inputs"]["certified"],
        "margin": report["margin"],
    }


def _verify_ok(out: dict) -> bool:
    if not out["certified"]:
        expected = cli.EXIT_UNCERTIFIED
    else:
        expected = cli.EXIT_VIOLATION if out["margin"] > 0.0 else cli.EXIT_OK
    return out["status"] == expected and math.isfinite(out["margin"])


def _sweep_digest(raw: CliResult) -> dict:
    rows = list(csv.DictReader(io.StringIO(raw.text)))
    return {
        "status": raw.status,
        "statuses": sorted({row["status"] for row in rows}),
        "margins": [float(row["margin"]) for row in rows],
    }


def _sweep_ok(out: dict) -> bool:
    return (
        out["status"] == cli.EXIT_OK
        and out["statuses"] == ["OK"]
        and len(out["margins"]) == 100
        and all(math.isfinite(x) for x in out["margins"])
    )


def _replay(kind: FunctionalKind, seed: int, trial: int) -> dict:
    r = harness.theorem_radius(kind)
    f = harness.campaign_function(kind, seed, trial, r)
    report = harness.evaluate_kind(kind, f, r)
    return {"value": report.value, "tail_error": report.tail_error, "margin": report.margin}


def _replay_ok(out: dict) -> bool:
    # The theorem: no self-map's bare sum exceeds 1 at the sharp radius.
    return out["value"] <= 1.0


def _schur(kind: FunctionalKind, gamma: tuple, T: int, r: float) -> dict:
    f = series.schur_from_parameters(gamma, T)
    report = harness.evaluate_kind(kind, f, r)
    return {"T": f.truncation_order, "value": report.value, "margin": report.margin}


def _schur_ok(out: dict) -> bool:
    return out["T"] in SCHUR_ORDERS and math.isfinite(out["margin"])


def _crossing(kind: FunctionalKind) -> dict:
    crossing = harness.empirical_radius(kind, harness.proof_extremal(kind))
    return {"crossing": crossing, "radius": harness.theorem_radius(kind)}


def _crossing_ok(out: dict) -> bool:
    return abs(out["crossing"] - out["radius"]) <= 1e-6


def _witness_digest(raw: CliResult) -> dict:
    witness = json.loads(raw.text)
    return {
        "status": raw.status,
        "r": witness["r"],
        "value": witness["value"],
        "witness_param": witness["witness_param"],
        "exceeds_one": witness["exceeds_one"],
    }


def _witness_ok(out: dict) -> bool:
    return out["status"] == cli.EXIT_OK and out["exceeds_one"] and out["value"] > 1.0 + 1e-6


def _branch_ok(out: dict) -> bool:
    c = _BRANCH_R / (1.0 - _BRANCH_R)
    return _witness_ok(out) and abs(out["value"] - (c + 1.0 / (4.0 * c))) <= 1e-9


# -------------------------------------------------------------- reference ---


def load_reference(workload: str, seed: int) -> dict | None:
    """The seed commit's digests for ``seed``, or None when none were stored."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def matches(out, ref, tol: float) -> bool:
    """Exact on ints, bools and strings; within ``tol`` on floats."""
    if isinstance(ref, dict):
        return (isinstance(out, dict) and out.keys() == ref.keys()
                and all(matches(out[k], ref[k], tol) for k in ref))
    if isinstance(ref, list):
        return (isinstance(out, list) and len(out) == len(ref)
                and all(matches(a, b, tol) for a, b in zip(out, ref)))
    if isinstance(ref, float):
        return isinstance(out, float) and abs(out - ref) <= tol
    return type(out) is type(ref) and out == ref


def check(op: Op, raw, reference: dict | None) -> tuple[dict | None, bool]:
    """Digest one op's output and judge it against invariants and the reference."""
    try:
        out = op.digest(raw)
        ok = bool(op.check(out))
    except (ValueError, KeyError, TypeError):
        return None, False
    if reference is not None:
        ok = ok and op.key in reference and matches(out, reference[op.key], op.tol)
    return out, ok
