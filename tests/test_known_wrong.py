"""The ledger of wrong verdicts: each case asserts the right answer and fails today.

Every case reproduces one wrong verdict that a ROADMAP item describes and
carries a strict xfail naming that item.  The fix that makes a case pass
turns its xfail into a failure of this suite, so that fix removes the mark.
Each mark takes ``raises=AssertionError``: a case that crashes is not the
failure its item describes, and fails the suite.
"""

import json

import numpy as np
import pytest

from bohrlab.cli import EXIT_UNCERTIFIED, EXIT_VIOLATION, main
from bohrlab.functionals import FunctionalKind
from bohrlab.harness import campaign_function, evaluate_kind, random_campaign, theorem_radius
from bohrlab.series import CoefficientSeries, mobius_series, schur_from_parameters, series_to_json
from bohrlab.spaces import BanachFunction, MappingForm, SpaceSpec, banach_to_json


def _known_wrong(item: str, why: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {item}: {why}")


def _verify(path, *kind_args):
    return main(["verify", "--file", str(path), *kind_args])


# -- item 1: a claimed certificate is trusted ------------------------------


@_known_wrong("item 1", "the file's claimed certificate is trusted, though 0.5 + 0.75z "
              "reaches 1.25 on the circle")
@pytest.mark.parametrize("certificate", ["SCHUR_EXACT", "SCHUR_SAMPLED"])
def test_polynomial_off_the_schur_class_is_uncertified(tmp_path, certificate):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 0, "p": 1, "coeffs": [[0.5, 0.0], [0.75, 0.0]],
                                "bound": 0, "certificate": certificate}))
    rc = _verify(path, "--kind", "D_NM", "--n", "1", "--m", "0", "--r", "0.3")
    assert rc == EXIT_UNCERTIFIED


# -- items 2 and 16: G_MPN's center is taken at one point of the circle ----

#: G_MPN(1, 1.0, 1) just past its sharp radius sqrt(5) - 2, where phi_a with
#: a = 0.9375 fails the inequality at z = r.
_G_MPN_ARGS = ("--kind", "G_MPN", "--m", "1", "--p-exp", "1.0", "--n", "1",
               "--r", "0.24606797749978737")


def _mobius_at_minus_z(a=0.9375, T=200):
    """phi_a(-lam): phi_a's coefficients with alternating signs, the same map rotated."""
    phi = mobius_series(a, T)
    signs = (-1.0) ** np.arange(T + 1)
    return CoefficientSeries(phi.coeffs_array * signs, phi.coefficient_bound, phi.certificate)


@_known_wrong("item 2", "G_MPN evaluates |f(r^m)| at the real point only, where "
              "phi_a(-lam) is smallest")
def test_rotated_mobius_file_fails_g_mpn(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(series_to_json(_mobius_at_minus_z())))
    rc = _verify(path, *_G_MPN_ARGS)
    assert rc == EXIT_VIOLATION


@_known_wrong("item 16", "a ball map is sliced at u only, where the slice at -u fails, "
              "and G_MPN reads that slice at one point (item 2)")
def test_rotated_ball_map_fails_g_mpn(tmp_path):
    f = BanachFunction(MappingForm.SCALAR_COMPOSITE, SpaceSpec(2, 2.0), (1.0, 0.0),
                       _mobius_at_minus_z())
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(banach_to_json(f)))
    rc = _verify(path, *_G_MPN_ARGS)
    assert rc == EXIT_VIOLATION


# -- item 4: a campaign's max_value is not a value -------------------------


@_known_wrong("item 4", "CampaignSummary.max_value is 1 + max(LHS - RHS), not the "
              "largest LHS, where the level is not 1")
def test_lemma_tail_campaign_reports_its_largest_lhs():
    kind, trials, seed, r = FunctionalKind.tail_lemma(3), 200, 0, 0.5
    summary = random_campaign(kind, trials, seed, r)
    # LEMMA_TAIL's value is the bound's LHS, its truncation certificates included.
    lhs = max(evaluate_kind(kind, campaign_function(kind, seed, trial, r), r).value
              for trial in range(trials))
    assert summary.max_value == pytest.approx(lhs, abs=1e-15)


# -- item 9: campaigns never reach the boundary of the Schur class ---------


@_known_wrong("item 9", "campaigns sample |gamma| <= 0.98 and miss the extremals")
@pytest.mark.parametrize("kind", [FunctionalKind.rogosinski_center(1.0, 1),
                                  FunctionalKind.improved((8.0 / 9.0,))],
                         ids=lambda kind: kind.tag.value)
def test_campaign_past_the_sharp_radius_finds_a_violation(kind):
    summary = random_campaign(kind, 10_000, 0, 1.01 * theorem_radius(kind))
    assert summary.max_margin > 0.0


# -- item 15: long parameter rows are not Schur prefixes -------------------


def _is_schur_prefix(coeffs: np.ndarray, eta: float) -> bool:
    """Whether ||T_c||_2 <= 1 + eta, by a dense Cholesky of (1 + eta)^2 I - T_c^H T_c.

    T_c is the lower-triangular Toeplitz matrix of c_0..c_T.  A prefix
    extends to a disk self-map iff ||T_c||_2 <= 1 (Schur 1917).
    """
    n = coeffs.size
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    toeplitz = np.where(lag >= 0, coeffs[np.clip(lag, 0, None)], 0.0)
    gram = (1.0 + eta) ** 2 * np.eye(n) - toeplitz.conj().T @ toeplitz
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def test_dense_schur_test_separates_prefixes():
    # The item-15 case's oracle passes a Mobius prefix and a short parameter
    # row, and refuses 0.5 + 0.75z + 0z^2, whose ||T_c||_2 is 1.124.
    assert _is_schur_prefix(mobius_series(0.9375, 200).coeffs_array, 1e-12)
    assert _is_schur_prefix(schur_from_parameters([0.5, 0.3j, -0.2], 60).coeffs_array, 1e-12)
    assert not _is_schur_prefix(np.array([0.5, 0.75, 0.0], dtype=complex), 1e-12)


@_known_wrong("item 15", "schur_from_parameters' A/B form loses its coefficients "
              "to cancellation on long rows")
def test_long_parameter_row_is_a_schur_prefix():
    rng = np.random.default_rng(0)  # seed 0: 200 parameters with |gamma| <= 0.95
    moduli, angles = rng.random((2, 200))
    gamma = 0.95 * np.sqrt(moduli) * np.exp(2j * np.pi * angles)
    f = schur_from_parameters(gamma, 200)
    assert _is_schur_prefix(f.coeffs_array, 1e-12)
