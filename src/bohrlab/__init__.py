"""Certified numerical checks for refined Bohr-type coefficient inequalities.

The package evaluates the radius equations, refined coefficient sums,
extremal families, and sharpness witnesses of that family of inequalities by
direct series evaluation with truncation certificates, root isolation on
(0, 1), and seeded randomized campaigns over disk self-maps.
"""

from .functionals import (
    ConstraintResult,
    ConstraintViolation,
    EvaluationReport,
    FunctionalKind,
    FunctionalTag,
    Status,
    SupportError,
    c_constant,
    constraint_check,
)
from .harness import (
    CampaignSummary,
    NO_CROSSING,
    NotSharpError,
    WitnessNotFoundError,
    WitnessReport,
    empirical_radius,
    evaluate_grid,
    evaluate_kind,
    proof_extremal,
    random_campaign,
    sharpness_witness,
    theorem_radius,
)
from .radii import (
    NoRootError,
    PARAMETER_CAP,
    RadiusEquation,
    RadiusKind,
    equation_value,
    maximal_root,
    star_equivalence_check,
    unique_root,
)
from .series import (
    Certificate,
    CoefficientSeries,
    LacunarySeries,
    MAX_EVAL_RADIUS,
    RadiusError,
    TailWeight,
    default_truncation,
    mobius_series,
    schur_from_parameters,
    series_from_json,
    series_to_json,
)
from .spaces import (
    BanachFunction,
    MappingForm,
    SpaceSpec,
    banach_from_json,
    banach_to_json,
    lq_norm,
    slice_series,
    support_functional,
    unit_vector,
)

__version__ = "0.1.0"
