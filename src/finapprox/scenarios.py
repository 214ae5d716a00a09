"""Bundled problem scenarios with known closed-form behavior.

Each scenario builds a validated problem instance (plus a subspace family for
the discretized function-space case) and documents what the analyzer is
expected to report on it. They serve as executable regression anchors for
the solvable, unsolvable, singular, non-representable, and broken-constraint
regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .galerkin import SubspaceFamily, family_projector, sample_midpoint, sine_family, midpoint_grid
from .hilbert import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    Tolerances,
    ValidationError,
    make_problem,
    make_projector,
)

__all__ = [
    "ScenarioSpec",
    "Scenario",
    "SCENARIO_DESCRIPTIONS",
    "SCENARIO_PARAMS",
    "EXPECTED_VERDICTS",
    "scenario_names",
    "build_scenario",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Name plus parameters selecting a bundled scenario."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A built scenario: the problem, and a subspace family when one applies."""

    name: str
    problem: ProblemInstance
    family: Optional[SubspaceFamily]
    description: str


SCENARIO_DESCRIPTIONS: dict[str, str] = {
    "diagonal_solvable": (
        "R^2 with the identity operator, constraint onto the first coordinate, "
        "rhs (1, 1); solvable, indicator vanishes linearly in alpha"
    ),
    "diagonal_unsolvable": (
        "R^2 with a rank-one operator onto the first coordinate, constraint onto "
        "the first coordinate, rhs e2; unreachable rhs with witness e2 and distance 1"
    ),
    "truncated_shift": (
        "R^N with a rank-one operator onto e1 and constraint onto span{e2..eN}; "
        "the regularized system is rank one, hence singular at every alpha with "
        "kernel containing the rhs e2 (the untruncated infinite-dimensional "
        "operator admits no faithful finite truncation here)"
    ),
    "rank_deficient_gamma": (
        "R^3 with gram matrix diag(1, 1, 0) declared to come from a one-dimensional "
        "control space, which is impossible (rank 2); analysis runs on the gram "
        "matrix alone, converging to witness e3, while the range oracle refuses"
    ),
    "nilpotent_pi": (
        "R^2 with the identity operator and a raw non-projector constraint "
        "[[0, 1], [0, 0]]; the indicator still vanishes but the constraint "
        "component of the residual stays bounded away from zero, showing why "
        "the exact-constraint guarantee needs a true orthogonal projector"
    ),
    "function_space_galerkin": (
        "discretized L^2(0, 1) on M midpoints with identity or diagonal damping "
        "operator, rhs the samples of x, and the sine family as nested constraint "
        "subspaces for Galerkin sweeps"
    ),
}

SCENARIO_PARAMS: dict[str, str] = {
    "diagonal_solvable": "none",
    "diagonal_unsolvable": "none",
    "truncated_shift": "N: ambient dimension, integer >= 3 (default 6)",
    "rank_deficient_gamma": (
        "dimU: declared control dimension, integer >= 1 (default 1; the gram "
        "matrix has rank 2, so dimU=1 is flagged non-representable)"
    ),
    "nilpotent_pi": "none",
    "function_space_galerkin": (
        "M: grid size, integer >= 4 (default 256); "
        "operator: 'identity' or 'damping' (default 'identity')"
    ),
}

EXPECTED_VERDICTS: dict[str, str] = {
    "diagonal_solvable": "SOLVABLE",
    "diagonal_unsolvable": "NOT_SOLVABLE",
    "truncated_shift": "SINGULAR",
    "rank_deficient_gamma": "NOT_SOLVABLE",
    "nilpotent_pi": "SOLVABLE",
    "function_space_galerkin": "SOLVABLE",
}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(SCENARIO_DESCRIPTIONS))


def _no_params(name: str, params: Mapping[str, object]) -> None:
    if params:
        raise ValidationError(f"scenario {name} takes no parameters, got {sorted(params)}")


def _build_diagonal_solvable(params, tols) -> Scenario:
    _no_params("diagonal_solvable", params)
    problem = make_problem(
        operator=np.eye(2),
        constraint=make_projector([np.array([1.0, 0.0])], tols=tols),
        rhs=np.array([1.0, 1.0]),
        tols=tols,
    )
    return Scenario("diagonal_solvable", problem, None, SCENARIO_DESCRIPTIONS["diagonal_solvable"])


def _build_diagonal_unsolvable(params, tols) -> Scenario:
    _no_params("diagonal_unsolvable", params)
    problem = make_problem(
        operator=np.array([[1.0], [0.0]]),
        constraint=make_projector([np.array([1.0, 0.0])], tols=tols),
        rhs=np.array([0.0, 1.0]),
        tols=tols,
    )
    return Scenario("diagonal_unsolvable", problem, None, SCENARIO_DESCRIPTIONS["diagonal_unsolvable"])


def _build_truncated_shift(params, tols) -> Scenario:
    params = dict(params)
    n = params.pop("N", 6)
    _no_params("truncated_shift", params)
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ValidationError(f"truncated_shift needs integer N >= 3, got {n!r}")
    n = int(n)
    operator = np.zeros((n, 1))
    operator[0, 0] = 1.0
    eye = np.eye(n)
    constraint = make_projector([eye[:, j] for j in range(1, n)], tols=tols)
    rhs = eye[:, 1].copy()
    problem = make_problem(operator=operator, constraint=constraint, rhs=rhs, tols=tols)
    return Scenario("truncated_shift", problem, None, SCENARIO_DESCRIPTIONS["truncated_shift"])


def _build_rank_deficient_gamma(params, tols) -> Scenario:
    params = dict(params)
    dim_u = params.pop("dimU", 1)
    _no_params("rank_deficient_gamma", params)
    if not (isinstance(dim_u, (int, np.integer)) and dim_u >= 1):
        raise ValidationError(f"rank_deficient_gamma needs integer dimU >= 1, got {dim_u!r}")
    problem = make_problem(
        gram_matrix=np.diag([1.0, 1.0, 0.0]),
        constraint=make_projector([np.array([1.0, 0.0, 0.0])], tols=tols),
        rhs=np.array([1.0, 1.0, 1.0]),
        control_dim=int(dim_u),
        tols=tols,
    )
    return Scenario(
        "rank_deficient_gamma", problem, None, SCENARIO_DESCRIPTIONS["rank_deficient_gamma"]
    )


def _build_nilpotent_pi(params, tols) -> Scenario:
    _no_params("nilpotent_pi", params)
    problem = make_problem(
        operator=np.eye(2),
        constraint=np.array([[0.0, 1.0], [0.0, 0.0]]),
        rhs=np.array([0.0, 1.0]),
        tols=tols,
    )
    return Scenario("nilpotent_pi", problem, None, SCENARIO_DESCRIPTIONS["nilpotent_pi"])


def _build_function_space_galerkin(params, tols) -> Scenario:
    params = dict(params)
    m = params.pop("M", 256)
    operator_name = params.pop("operator", "identity")
    _no_params("function_space_galerkin", params)
    if not (isinstance(m, (int, np.integer)) and m >= 4):
        raise ValidationError(f"function_space_galerkin needs integer M >= 4, got {m!r}")
    m = int(m)
    if operator_name == "identity":
        operator = np.eye(m)
    elif operator_name == "damping":
        operator = np.diag(1.0 / (1.0 + midpoint_grid(m)))
    else:
        raise ValidationError(
            f"unknown operator {operator_name!r} for function_space_galerkin "
            "(choose 'identity' or 'damping')"
        )
    family = sine_family(m)
    target = family_projector(family, family.max_n)
    rhs = sample_midpoint(lambda x: x, m)
    problem = make_problem(operator=operator, constraint=target, rhs=rhs, tols=tols)
    return Scenario(
        "function_space_galerkin", problem, family, SCENARIO_DESCRIPTIONS["function_space_galerkin"]
    )


_BUILDERS: dict[str, Callable] = {
    "diagonal_solvable": _build_diagonal_solvable,
    "diagonal_unsolvable": _build_diagonal_unsolvable,
    "truncated_shift": _build_truncated_shift,
    "rank_deficient_gamma": _build_rank_deficient_gamma,
    "nilpotent_pi": _build_nilpotent_pi,
    "function_space_galerkin": _build_function_space_galerkin,
}


def build_scenario(
    spec,
    tols: Tolerances = DEFAULT_TOLERANCES,
    **params,
) -> Scenario:
    """Build a bundled scenario.

    ``spec`` is a :class:`ScenarioSpec` or a scenario name; keyword parameters
    merge over the spec's own. Unknown names list the available catalog,
    unknown or ill-typed parameters name the offending value.
    """
    if isinstance(spec, ScenarioSpec):
        name = spec.name
        merged = dict(spec.params)
        merged.update(params)
    else:
        name = str(spec)
        merged = dict(params)
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValidationError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return builder(merged, tols)
