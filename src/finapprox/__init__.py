"""Finite-approximate solvability of constrained linear operator equations.

Given a linear operator L between finite-dimensional inner-product spaces,
an orthogonal projector P onto a closed subspace, and a target vector h,
this package decides whether the equation Lu = h admits approximate
solutions whose constrained component P(Lu - h) vanishes exactly, and
constructs them. The decision runs through a one-parameter family of
regularized operators alpha*(I - P) + L L^T whose solutions either converge
(solvable case) or stabilize on a nonzero certificate vector that proves
unsolvability. An independent least-squares oracle cross-checks every
verdict, and a nested-subspace scheme extends the construction to
constraints given as limits of finite-rank projectors.
"""

from .analyzer import (
    AlphaSchedule,
    Decision,
    InvertibilityReport,
    OracleDecision,
    SweepRecord,
    SweepReport,
    Verdict,
    alpha_sweep,
    decide,
    extract_witness,
    factor_invertibility,
    range_oracle,
    witness_correlation,
)
from .galerkin import (
    GalerkinRecord,
    GalerkinReport,
    SubspaceFamily,
    coordinate_family,
    diagonal_steps,
    family_projector,
    galerkin_sweep,
    midpoint_grid,
    sample_midpoint,
    sine_family,
    strong_convergence_probe,
)
from .hilbert import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    Projector,
    ProjectorReport,
    RepresentabilityReport,
    Spectrum,
    Tolerances,
    ValidationError,
    ValidationRecord,
    gram,
    gram_representable,
    make_problem,
    make_projector,
    orthonormal_columns,
    projector_defects,
)
from .problemfile import (
    ProblemFileError,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from .resolvent import (
    IdentityReport,
    RegularizedFactor,
    RegularizedSolution,
    SingularSystem,
    factor_regularized,
    identity_residuals,
    regularized_operator,
    solve_regularized,
)
from .scenarios import (
    EXPECTED_VERDICTS,
    Scenario,
    ScenarioSpec,
    build_scenario,
    scenario_names,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSchedule",
    "Decision",
    "DEFAULT_TOLERANCES",
    "EXPECTED_VERDICTS",
    "GalerkinRecord",
    "GalerkinReport",
    "IdentityReport",
    "InvertibilityReport",
    "OracleDecision",
    "ProblemFileError",
    "ProblemInstance",
    "Projector",
    "ProjectorReport",
    "RegularizedFactor",
    "RegularizedSolution",
    "RepresentabilityReport",
    "Scenario",
    "ScenarioSpec",
    "SingularSystem",
    "Spectrum",
    "SubspaceFamily",
    "SweepRecord",
    "SweepReport",
    "Tolerances",
    "ValidationError",
    "ValidationRecord",
    "Verdict",
    "alpha_sweep",
    "build_scenario",
    "coordinate_family",
    "decide",
    "diagonal_steps",
    "extract_witness",
    "factor_invertibility",
    "factor_regularized",
    "family_projector",
    "galerkin_sweep",
    "gram",
    "gram_representable",
    "identity_residuals",
    "load_problem",
    "make_problem",
    "make_projector",
    "midpoint_grid",
    "orthonormal_columns",
    "problem_from_dict",
    "problem_to_dict",
    "projector_defects",
    "range_oracle",
    "regularized_operator",
    "sample_midpoint",
    "save_problem",
    "scenario_names",
    "sine_family",
    "solve_regularized",
    "strong_convergence_probe",
    "witness_correlation",
    "__version__",
]
