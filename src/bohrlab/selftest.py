"""Built-in acceptance checks: golden values, equivalences, seeded campaigns.

Each criterion is a function returning (passed, detail); the runner times
them and prints one line per criterion.  The same functions back the CLI
``selftest`` subcommand and the acceptance test module, so the library, the
command line, and the test suite cannot disagree about what "passing" means.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .functionals import FunctionalKind, c_constant, constraint_check
from .harness import (
    empirical_radius,
    evaluate_grid,
    evaluate_kind,
    proof_extremal,
    random_campaign,
    sharpness_witness,
    theorem_radius,
)
from .radii import RadiusEquation, maximal_root, star_equivalence_check
from .series import (
    CoefficientSeries,
    LacunarySeries,
    default_truncation,
    mobius_series,
    schur_from_parameters,
)
from .spaces import (
    BanachFunction,
    MappingForm,
    SpaceSpec,
    dual_exponent,
    lq_norm,
    slice_series,
    support_functional,
    unit_vector,
)

__all__ = ["CheckResult", "CRITERIA", "RUNTIME_BUDGETS", "run_criterion", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


#: Wall-clock budgets (seconds) stated for each criterion.
RUNTIME_BUDGETS = {1: 1.0, 2: 1.0, 3: 5.0, 4: 60.0, 5: 10.0, 6: 10.0, 7: 5.0, 8: 5.0, 9: 5.0}


def check_golden_radii() -> tuple[bool, str]:
    """Known roots: 1/3, 3/5, 3^(-1/p) for p = 1..10, and the limit constants."""
    cases: list[tuple[RadiusEquation, float]] = [
        (RadiusEquation.gap_piecewise(1, 0), 1.0 / 3.0),
        (RadiusEquation.gap_piecewise(2, 1), 3.0 / 5.0),
        (RadiusEquation.rogosinski_limit(1, 1.0), 1.0 / 3.0),
        (RadiusEquation.rogosinski_limit(1, 2.0), 1.0 / 2.0),
    ]
    cases += [
        (RadiusEquation.refined_lacunary(p, 0), 3.0 ** (-1.0 / p)) for p in range(1, 11)
    ]
    worst = max(abs(maximal_root(eq) - expected) for eq, expected in cases)
    return worst <= 1e-10, f"max |root - expected| = {worst:.3e} over {len(cases)} cases"


def check_star_equivalence() -> tuple[bool, str]:
    """Piecewise and single-equation gap radii agree for m <= 4, m+1 <= N <= 8."""
    worst = 0.0
    pairs = 0
    for m in range(0, 5):
        for n in range(m + 1, 9):
            worst = max(worst, star_equivalence_check(n, m))
            pairs += 1
    return worst <= 1e-10, f"max |r* - r**| = {worst:.3e} over {pairs} pairs"


def check_extremal_closed_forms() -> tuple[bool, str]:
    """Evaluators reproduce the extremal families' closed forms on a 19x19 grid."""
    grid = [0.05 * k for k in range(1, 20)]
    T = default_truncation(max(grid))
    worst = 0.0
    for p, m in ((1, 0), (2, 1), (3, 2)):
        kind = FunctionalKind.lacunary(p, m)
        for a in grid:
            fam = LacunarySeries(m, p, mobius_series(-a, T))
            for r, report in zip(grid, evaluate_grid(kind, fam, grid)):
                rp = r**p
                expected = r**m * (a + (1.0 - a * a) * rp / (1.0 - rp))
                worst = max(worst, abs(report.value - expected))
    for m in (0, 1, 2):
        kind = FunctionalKind.gap(m + 1, m)
        for a in grid:
            series = LacunarySeries(m, 1, mobius_series(-a, T)).expand()
            for r, report in zip(grid, evaluate_grid(kind, series, grid)):
                expected = r**m * (a + (1.0 - a * a) * r / (1.0 - r))
                worst = max(worst, abs(report.value - expected))
    return worst <= 1e-9, f"max |value - closed form| = {worst:.3e}"


_SAFETY_SUITE: list[tuple[FunctionalKind, int]] = [
    (FunctionalKind.lacunary(1, 0), 101),
    (FunctionalKind.lacunary(2, 1), 102),
    (FunctionalKind.lacunary(3, 2), 103),
    (FunctionalKind.gap(1, 0), 201),
    (FunctionalKind.gap(2, 1), 202),
    (FunctionalKind.gap(3, 1), 203),
    (FunctionalKind.rogosinski_center(1.0, 1), 301),
    (FunctionalKind.rogosinski_center(2.0, 1), 302),
    (FunctionalKind.rogosinski_center(2.0, 3), 303),
    (FunctionalKind.improved((8.0 / 9.0,)), 401),
]


def check_theorem_safety(
    trials: int = 10_000, seed_offset: int = 0
) -> tuple[bool, str]:
    """Seeded random functions never push a margin past its tail certificate."""
    worst = -np.inf
    verdicts = []
    for kind, seed in _SAFETY_SUITE:
        summary = random_campaign(kind, trials, seed + seed_offset)
        excess = summary.max_value - 1.0  # = max over trials of (margin - tail)
        worst = max(worst, excess)
        verdicts.append(f"{kind.tag.value}:{'ok' if excess <= 0.0 else 'VIOLATED'}")
    return worst <= 0.0, (
        f"max (margin - tail) = {worst:.3e}; {trials} trials each; "
        + " ".join(verdicts)
    )


def check_sharpness_suite() -> tuple[bool, str]:
    """Every witness exceeds 1 + 1e-6 just past its radius, branch formulas included."""
    kinds = [
        FunctionalKind.lacunary(1, 1),
        FunctionalKind.lacunary(2, 1),
        FunctionalKind.lacunary(1, 0),
        FunctionalKind.lacunary(2, 0),
        FunctionalKind.gap(2, 1),
        FunctionalKind.gap(1, 0),
        FunctionalKind.rogosinski(2, 1.0, 2),
        FunctionalKind.rogosinski(1, 2.0, 3),
        FunctionalKind.rogosinski_center(1.0, 1),
        FunctionalKind.rogosinski_center(2.0, 1),
        FunctionalKind.improved((8.0 / 9.0,)),
    ]
    least = min(sharpness_witness(kind).value - 1.0 for kind in kinds)  # at r* + 0.01

    # The m = 0 branch takes a = 1/(2c) and lands exactly on c + 1/(4c).
    r = 1.0 / 3.0 + 0.01
    c = r / (1.0 - r)
    expected = c + 1.0 / (4.0 * c)
    branch_errs = [
        abs(sharpness_witness(FunctionalKind.lacunary(1, 0), r).value - expected),
        abs(sharpness_witness(FunctionalKind.gap(1, 0), r).value - expected),
    ]
    branch_ok = max(branch_errs) <= 1e-9
    limit_factor = (1.0 - 3.0 * r) / (1.0 - r)  # drives the improved-sum witness
    ok = branch_ok and least > 1e-6 and limit_factor < 0.0
    return ok, (
        f"min excess = {least:.3e}; m=0 branch vs c + 1/(4c): "
        f"{max(branch_errs):.3e}; limit factor {limit_factor:.3f}"
    )


def check_lemma_tail_bound() -> tuple[bool, str]:
    """Conservative tail-bound slack stays above -1e-10 on random functions."""
    worst = np.inf
    for n in (1, 2, 3):
        for r in (0.2, 0.5, 0.8):
            # the campaign margin is LHS - RHS, so its maximum is minus the least slack
            summary = random_campaign(FunctionalKind.tail_lemma(n), 1000, 11, r)
            worst = min(worst, -summary.max_margin)
    return worst >= -1e-10, f"min slack = {worst:.3e} over 9 (N, r) combinations"


def check_constraint_arithmetic() -> tuple[bool, str]:
    """Boundary weight sits at equality; maximizer constants match a dense oracle."""
    res = constraint_check((8.0 / 9.0,))
    eq_err = abs(res.lhs - 1.0)
    if not (res.ok and eq_err <= 1e-12):
        return False, f"boundary weight lhs = {res.lhs!r}"
    values = [c_constant(s) for s in range(2, 9)]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    grid = np.linspace(0.0, 1.0, 1_000_000)
    worst = 0.0
    for s, val in zip(range(2, 9), values):
        oracle = float((grid * (1.0 + grid) ** 2 * (1.0 - grid * grid) ** (2 * s - 2)).max())
        worst = max(worst, abs(val - oracle))
    ok = decreasing and worst <= 1e-8
    return ok, (
        f"equality error {eq_err:.2e}; max |c_s - grid oracle| = {worst:.3e}; "
        f"strictly decreasing: {decreasing}"
    )


def _read_lacunary(series: CoefficientSeries, m: int, p: int, order: int) -> LacunarySeries:
    g = CoefficientSeries(
        tuple(series.coeffs[s * p + m] for s in range(order + 1)),
        series.coefficient_bound,
        series.certificate,
    )
    return LacunarySeries(m, p, g)


def check_banach_reduction() -> tuple[bool, str]:
    """Slicing through the vector machinery agrees with direct scalar evaluation."""
    rng = np.random.default_rng(5)
    r = 0.5
    worst_eval = 0.0
    worst_ident = 0.0
    T = 150
    gap = FunctionalKind.gap(2, 1)
    lacunary = FunctionalKind.lacunary(2, 1)
    for q in (1.5, 2.0, 3.0):
        for n in (2, 5):
            spec = SpaceSpec(n, q)
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = support_functional(x, spec)
            worst_ident = max(
                worst_ident,
                abs(complex(np.dot(w, x)) - lq_norm(x, spec)),
                abs(lq_norm(w, SpaceSpec(n, dual_exponent(q))) - 1.0),
            )
            u = unit_vector(rng.normal(size=n) + 1j * rng.normal(size=n), spec)
            direction = unit_vector(rng.normal(size=n) + 1j * rng.normal(size=n), spec)
            mags = 0.6 * np.sqrt(rng.random(4))
            args = 2.0 * np.pi * rng.random(4)
            g = schur_from_parameters(mags * np.exp(1j * args), T)

            # Functional type on the gap shape {1} | {s >= 2}.
            h_gap = LacunarySeries(1, 1, g).expand()
            f_vec = BanachFunction(
                MappingForm.VECTOR_VALUED, spec, u, h_gap, spec, direction
            )
            via = evaluate_kind(gap, slice_series(f_vec, u), r).value
            direct = evaluate_kind(gap, h_gap, r).value
            worst_eval = max(worst_eval, abs(via - direct))

            # Functional type on the lacunary shape {2s + 1}.
            h_lac = LacunarySeries(1, 2, g).expand()
            f_vec2 = BanachFunction(
                MappingForm.VECTOR_VALUED, spec, u, h_lac, spec, direction
            )
            got = _read_lacunary(slice_series(f_vec2, u), 1, 2, g.truncation_order)
            via = evaluate_kind(lacunary, got, r).value
            direct_lac = evaluate_kind(lacunary, LacunarySeries(1, 2, g), r).value
            worst_eval = max(worst_eval, abs(via - direct_lac))

            # Norm type: z * h(T_u(z)); the slice's moduli are the term norms.
            f_norm = BanachFunction(MappingForm.Z_TIMES_SCALAR, spec, u, g)
            sliced = slice_series(f_norm, u)
            via = evaluate_kind(gap, sliced, r, squared_shift=1).value
            direct = evaluate_kind(gap, h_gap, r, squared_shift=1).value
            worst_eval = max(worst_eval, abs(via - direct))

            # Norm type on the lacunary shape: h = lam^(m-1) G(lam^p) with m = 1.
            f_norm2 = BanachFunction(
                MappingForm.Z_TIMES_SCALAR, spec, u, LacunarySeries(0, 2, g).expand()
            )
            got = _read_lacunary(slice_series(f_norm2, u), 1, 2, g.truncation_order)
            via = evaluate_kind(lacunary, got, r).value
            worst_eval = max(worst_eval, abs(via - direct_lac))
    ok = worst_eval <= 1e-12 and worst_ident <= 1e-12
    return ok, (
        f"max evaluation gap = {worst_eval:.3e}; "
        f"max support-identity error = {worst_ident:.3e}"
    )


def check_empirical_radius() -> tuple[bool, str]:
    """Proof-optimal extremals cross exactly at the theorem radius."""
    worst = 0.0
    for kind in (FunctionalKind.lacunary(2, 1), FunctionalKind.gap(2, 1)):
        r0 = theorem_radius(kind)
        crossing = empirical_radius(kind, proof_extremal(kind))
        worst = max(worst, abs(crossing - r0))
    return worst <= 1e-6, f"max |crossing - radius| = {worst:.3e}"


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "golden-radii", check_golden_radii),
    (2, "star-equivalence", check_star_equivalence),
    (3, "extremal-closed-forms", check_extremal_closed_forms),
    (4, "theorem-safety", check_theorem_safety),
    (5, "sharpness-suite", check_sharpness_suite),
    (6, "lemma-tail-bound", check_lemma_tail_bound),
    (7, "constraint-arithmetic", check_constraint_arithmetic),
    (8, "banach-reduction", check_banach_reduction),
    (9, "empirical-radius", check_empirical_radius),
]


def run_criterion(
    number: int,
    safety_trials: int | None = None,
    safety_seed_offset: int | None = None,
) -> CheckResult:
    for num, name, fn in CRITERIA:
        if num == number:
            if num == 4 and (safety_trials is not None or safety_seed_offset is not None):
                trials = 10_000 if safety_trials is None else safety_trials
                offset = 0 if safety_seed_offset is None else safety_seed_offset
                fn = lambda: check_theorem_safety(trials, offset)  # noqa: E731
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # a crash is a failure, not an abort
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(num, name, passed, detail, time.perf_counter() - start)
    raise ValueError(f"no acceptance criterion numbered {number}")


def run_selftest(
    numbers: Iterable[int] | None = None,
    stream: TextIO | None = None,
    safety_trials: int | None = None,
    safety_seed_offset: int | None = None,
) -> list[CheckResult]:
    """Run the selected criteria (default: all), printing one line per result."""
    selected: Sequence[int] = tuple(numbers) if numbers is not None else tuple(
        num for num, _, _ in CRITERIA
    )
    results = []
    for number in selected:
        result = run_criterion(
            number,
            safety_trials=safety_trials,
            safety_seed_offset=safety_seed_offset,
        )
        results.append(result)
        if stream is not None:
            verdict = "PASS" if result.passed else "FAIL"
            stream.write(
                f"criterion {result.number} {result.name:<24s} {verdict}"
                f"  ({result.seconds:.2f}s)  {result.detail}\n"
            )
    if stream is not None:
        good = sum(1 for res in results if res.passed)
        stream.write(f"selftest: {good}/{len(results)} criteria passed\n")
    return results
