"""Bundled problem scenarios with known closed-form behavior.

Each scenario is one ``_CATALOG`` entry: a builder of a validated problem
instance (plus a subspace family for the discretized function-space case),
the verdict the analyzer is expected to report, and its documentation and
parameter defaults. They serve as executable regression anchors for the
solvable, unsolvable, singular, non-representable, and broken-constraint regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .galerkin import SubspaceFamily, family_projector, sample_midpoint, sine_family, midpoint_grid
from .hilbert import (
    DEFAULT_TOLERANCES, ProblemInstance, Tolerances, ValidationError, _int_at_least, make_problem,
    make_projector,
)

__all__ = [
    "ScenarioSpec",
    "Scenario",
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


def _diagonal_solvable(tols):
    return make_problem(
        operator=np.eye(2),
        constraint=make_projector([np.array([1.0, 0.0])], tols=tols),
        rhs=np.array([1.0, 1.0]),
        tols=tols,
    ), None


def _diagonal_unsolvable(tols):
    return make_problem(
        operator=np.array([[1.0], [0.0]]),
        constraint=make_projector([np.array([1.0, 0.0])], tols=tols),
        rhs=np.array([0.0, 1.0]),
        tols=tols,
    ), None


def _truncated_shift(tols, *, N):
    if not _int_at_least(N, 3):
        raise ValidationError(f"truncated_shift needs integer N >= 3, got {N!r}")
    n = int(N)
    operator = np.zeros((n, 1))
    operator[0, 0] = 1.0
    eye = np.eye(n)
    constraint = make_projector([eye[:, j] for j in range(1, n)], tols=tols)
    rhs = eye[:, 1].copy()
    return make_problem(operator=operator, constraint=constraint, rhs=rhs, tols=tols), None


def _rank_deficient_gamma(tols, *, dimU):
    if not _int_at_least(dimU, 1):
        raise ValidationError(f"rank_deficient_gamma needs integer dimU >= 1, got {dimU!r}")
    return make_problem(
        gram_matrix=np.diag([1.0, 1.0, 0.0]),
        constraint=make_projector([np.array([1.0, 0.0, 0.0])], tols=tols),
        rhs=np.array([1.0, 1.0, 1.0]),
        control_dim=int(dimU),
        tols=tols,
    ), None


def _nilpotent_pi(tols):
    return make_problem(
        operator=np.eye(2),
        constraint=np.array([[0.0, 1.0], [0.0, 0.0]]),
        rhs=np.array([0.0, 1.0]),
        tols=tols,
    ), None


def _function_space_galerkin(tols, *, M, operator):
    if not _int_at_least(M, 4):
        raise ValidationError(f"function_space_galerkin needs integer M >= 4, got {M!r}")
    m = int(M)
    if operator not in ("identity", "damping"):
        raise ValidationError(
            f"unknown operator {operator!r} for function_space_galerkin "
            "(choose 'identity' or 'damping')"
        )
    family = sine_family(m)  # before L, so the family's temporaries and L are never held together
    target = family_projector(family, family.max_n)
    rhs = sample_midpoint(lambda x: x, m)
    matrix = np.eye(m) if operator == "identity" else np.diag(1.0 / (1.0 + midpoint_grid(m)))
    return make_problem(operator=matrix, constraint=target, rhs=rhs, tols=tols), family


@dataclass(frozen=True)
class _Entry:
    """A catalog scenario: ``build(tols, **params)`` plus what the catalog says of it."""

    build: Callable[..., tuple[ProblemInstance, Optional[SubspaceFamily]]]
    verdict: str
    description: str
    params: str = "none"
    defaults: Mapping[str, object] = field(default_factory=dict)


_CATALOG: dict[str, _Entry] = {
    "diagonal_solvable": _Entry(
        _diagonal_solvable,
        "SOLVABLE",
        "R^2 with the identity operator, constraint onto the first coordinate, "
        "rhs (1, 1); solvable, indicator vanishes linearly in alpha",
    ),
    "diagonal_unsolvable": _Entry(
        _diagonal_unsolvable,
        "NOT_SOLVABLE",
        "R^2 with a rank-one operator onto the first coordinate, constraint onto "
        "the first coordinate, rhs e2; unreachable rhs with witness e2 and distance 1",
    ),
    "truncated_shift": _Entry(
        _truncated_shift,
        "SINGULAR",
        "R^N with a rank-one operator onto e1 and constraint onto span{e2..eN}; "
        "the regularized system is rank one, hence singular at every alpha with "
        "kernel containing the rhs e2 (the untruncated infinite-dimensional "
        "operator admits no faithful finite truncation here)",
        "N: ambient dimension, integer >= 3 (default 6)",
        {"N": 6},
    ),
    "rank_deficient_gamma": _Entry(
        _rank_deficient_gamma,
        "NOT_SOLVABLE",
        "R^3 with gram matrix diag(1, 1, 0) declared to come from a one-dimensional "
        "control space, which is impossible (rank 2); analysis runs on the gram "
        "matrix alone, converging to witness e3, while the range oracle refuses",
        "dimU: declared control dimension, integer >= 1 (default 1; the gram "
        "matrix has rank 2, so dimU=1 is flagged non-representable)",
        {"dimU": 1},
    ),
    "nilpotent_pi": _Entry(
        _nilpotent_pi,
        "SOLVABLE",
        "R^2 with the identity operator and a raw non-projector constraint "
        "[[0, 1], [0, 0]]; the indicator still vanishes but the constraint "
        "component of the residual stays bounded away from zero, showing why "
        "the exact-constraint guarantee needs a true orthogonal projector",
    ),
    "function_space_galerkin": _Entry(
        _function_space_galerkin,
        "SOLVABLE",
        "discretized L^2(0, 1) on M midpoints with identity or diagonal damping "
        "operator, rhs the samples of x, and the sine family as nested constraint "
        "subspaces for Galerkin sweeps",
        "M: grid size, integer >= 4 (default 256); "
        "operator: 'identity' or 'damping' (default 'identity')",
        {"M": 256, "operator": "identity"},
    ),
}

SCENARIO_DESCRIPTIONS: dict[str, str] = {name: e.description for name, e in _CATALOG.items()}
SCENARIO_PARAMS: dict[str, str] = {name: e.params for name, e in _CATALOG.items()}
EXPECTED_VERDICTS: dict[str, str] = {name: e.verdict for name, e in _CATALOG.items()}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def build_scenario(spec, tols: Tolerances = DEFAULT_TOLERANCES, **params) -> Scenario:
    """Build a bundled scenario.

    ``spec`` is a :class:`ScenarioSpec` or a scenario name; keyword parameters
    merge over the spec's own, and the catalog's defaults fill in the rest.
    Unknown names list the available catalog, unknown parameters list the
    accepted ones, and ill-typed values name the offending value.
    """
    if isinstance(spec, ScenarioSpec):
        name, params = spec.name, {**spec.params, **params}
    else:
        name = str(spec)
    entry = _CATALOG.get(name)
    if entry is None:
        raise ValidationError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    unknown = sorted(set(params) - set(entry.defaults))
    if unknown:
        raise ValidationError(
            f"scenario {name} got unknown parameters {unknown}; "
            f"it accepts {sorted(entry.defaults) or 'none'}"
        )
    problem, family = entry.build(tols, **{**entry.defaults, **params})
    return Scenario(name, problem, family, entry.description)
