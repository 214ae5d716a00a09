"""The package's public surface: the names ``finapprox`` exports."""

import inspect

import finapprox

PUBLIC_NAMES = [
    "AlphaSchedule",
    "DEFAULT_TOLERANCES",
    "Decision",
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
    "SingularSystem",
    "Spectrum",
    "SubspaceFamily",
    "SweepRecord",
    "SweepReport",
    "Tolerances",
    "ValidationError",
    "ValidationRecord",
    "Verdict",
    "__version__",
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
]


def test_public_names_are_pinned():
    assert sorted(finapprox.__all__) == PUBLIC_NAMES
    assert len(set(finapprox.__all__)) == len(finapprox.__all__)
    for name in finapprox.__all__:
        getattr(finapprox, name)


def test_only_make_problem_takes_tolerances():
    """A problem's tolerances are set where it is posed, so no other public callable
    takes them: building a projector or a scenario reads no tolerance."""
    takers = []
    for name in finapprox.__all__:
        value = getattr(finapprox, name)
        if not callable(value) or isinstance(value, type):
            continue
        if {"tols", "rank_tol"} & set(inspect.signature(value).parameters):
            takers.append(name)
    assert takers == ["make_problem"]
