"""Galerkin approximation of the constraint by nested subspace families.

When the constraint's subspace is too large or only known through a family of
finite approximations, the sweep is run against projectors onto nested
subspaces H_1 subset H_2 subset ... while alpha decreases along a diagonal
schedule. Each step still matches its own finite constraint exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .hilbert import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    Projector,
    Tolerances,
    ValidationError,
    orthonormal_columns,
    _readonly,
)
from .resolvent import RegularizedSolution, SingularSystem, factor_regularized

__all__ = [
    "SubspaceFamily",
    "GalerkinRecord",
    "GalerkinReport",
    "coordinate_family",
    "sine_family",
    "midpoint_grid",
    "sample_midpoint",
    "family_projector",
    "strong_convergence_probe",
    "diagonal_steps",
    "galerkin_sweep",
]


@dataclass(frozen=True)
class SubspaceFamily:
    """Nested family of subspaces given by a level generator.

    ``generator(n)`` returns the level-n basis vectors as columns of a
    ``(dim, k_n)`` array; level n must extend level n-1 by appending columns
    (prefix nesting). Levels are defined for 1 <= n <= max_n; level 0 is the
    zero subspace by convention and never consults the generator.
    """

    generator: Callable[[int], np.ndarray]
    description: str
    max_n: int
    dim: int

    def level(self, n: int) -> np.ndarray:
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= self.max_n):
            raise ValidationError(
                f"level must be an integer in [1, {self.max_n}] for this family, got {n!r}"
            )
        columns = np.asarray(self.generator(n), dtype=float)
        if columns.ndim != 2 or columns.shape[0] != self.dim:
            raise ValidationError(
                f"family generator returned shape {columns.shape}, expected ({self.dim}, k)"
            )
        if not np.all(np.isfinite(columns)):
            raise ValidationError(f"family level {n} contains non-finite entries")
        return columns


def coordinate_family(dim: int) -> SubspaceFamily:
    """Nested spans of the first n coordinate directions in R^dim."""
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    eye = np.eye(int(dim))
    return SubspaceFamily(
        generator=lambda n: eye[:, :n],
        description=f"first coordinate directions of R^{int(dim)}",
        max_n=int(dim),
        dim=int(dim),
    )


def midpoint_grid(grid_size: int) -> np.ndarray:
    """Midpoints (j + 1/2) / M of a uniform partition of (0, 1)."""
    if not (isinstance(grid_size, (int, np.integer)) and grid_size >= 1):
        raise ValidationError(f"grid_size must be a positive integer, got {grid_size!r}")
    m = int(grid_size)
    return (np.arange(m) + 0.5) / m


def sample_midpoint(func: Callable[[np.ndarray], np.ndarray], grid_size: int) -> np.ndarray:
    """Embed a function on (0, 1) into discretized coordinates.

    Samples at the midpoints and scales by 1/sqrt(M), so the standard dot
    product of embedded vectors equals the discrete inner product
    (1/M) sum f(x_j) g(x_j). The constant function 1 embeds with norm one.
    """
    x = midpoint_grid(grid_size)
    values = np.asarray(func(x), dtype=float)
    if values.shape != x.shape:
        raise ValidationError(f"sampled function returned shape {values.shape}, expected {x.shape}")
    return values / np.sqrt(float(grid_size))


def sine_family(grid_size: int) -> SubspaceFamily:
    """Constant plus first n full-period sine modes on the midpoint grid.

    Level n holds the samples of {1, sin(2 pi x), ..., sin(2 pi n x)} in the
    discrete inner product embedding. Levels run up to floor((M - 2) / 2),
    which keeps every requested mode strictly below the grid's aliasing
    limit; requesting more is rejected.
    """
    if not (isinstance(grid_size, (int, np.integer)) and grid_size >= 4):
        raise ValidationError(f"sine family needs a grid of at least 4 points, got {grid_size!r}")
    m = int(grid_size)
    x = midpoint_grid(m)
    scale = 1.0 / np.sqrt(float(m))
    max_n = (m - 2) // 2

    def level(n: int) -> np.ndarray:
        columns = np.empty((m, n + 1))
        columns[:, 0] = scale
        columns[:, 1:] = np.sin(np.outer(x, 2.0 * np.pi * np.arange(1, n + 1))) * scale
        return columns

    return SubspaceFamily(
        generator=level,
        description=f"constant plus first sine modes on {m} midpoints of (0, 1)",
        max_n=max_n,
        dim=m,
    )


def family_projector(
    family: SubspaceFamily, n: int, tols: Tolerances = DEFAULT_TOLERANCES
) -> Projector:
    """Orthogonal projector onto the family's level-n subspace.

    Level 0 is the zero projector. Unlike general projector construction,
    a family level is required to be independent: any dropped column is an
    error naming the offending level, because a dependent family level means
    the discretization itself is broken.
    """
    if not (isinstance(n, (int, np.integer)) and 0 <= n <= family.max_n):
        raise ValidationError(
            f"family level must be an integer in [0, {family.max_n}], got {n!r}"
        )
    if n == 0:
        return Projector(basis=_readonly(np.zeros((family.dim, 0))))
    columns = family.level(int(n))
    basis, dropped = orthonormal_columns(columns, tols.rank_tol)
    if dropped:
        raise ValidationError(
            f"family level {n} has linearly dependent basis vectors (columns {dropped} dropped)"
        )
    return Projector(basis=_readonly(basis))


def strong_convergence_probe(
    family: SubspaceFamily,
    target: Projector,
    probes: Sequence[np.ndarray],
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Defect table ||P_n x - P x|| for each probe x and each level n.

    Row n-1 holds level n, columns follow the probes. When every family level
    lies inside the target's range, each column is non-increasing, and strong
    convergence of the family to the target shows up as columns decreasing
    toward zero.

    Levels are prefix-nested, so the max-level basis is built once and level n
    is its first k_n columns; P_n x is updated from the new columns only.
    """
    if target.dim != family.dim:
        raise ValidationError(
            f"target projector dimension {target.dim} does not match family dimension {family.dim}"
        )
    probe_list = [np.asarray(x, dtype=float) for x in probes]
    for i, x in enumerate(probe_list):
        if x.shape != (family.dim,):
            raise ValidationError(f"probe {i} has shape {x.shape}, expected ({family.dim},)")
    x = np.column_stack(probe_list) if probe_list else np.zeros((family.dim, 0))
    basis = family_projector(family, family.max_n, tols=tols).basis
    coefficients = basis.T @ x
    targeted = target.apply(x)
    projected = np.zeros_like(x)
    table = np.empty((family.max_n, x.shape[1]))
    done = 0
    for n in range(1, family.max_n + 1):
        k = family.level(n).shape[1]
        if not done <= k <= basis.shape[1]:
            raise ValidationError(f"family level {n} is not a column prefix of level {family.max_n}")
        projected += basis[:, done:k] @ coefficients[done:k]
        done = k
        table[n - 1] = np.linalg.norm(projected - targeted, axis=0)
    return table


def diagonal_steps(
    count: int = 8,
    max_n: Optional[int] = None,
    alpha0: float = 1.0,
    ratio: float = 0.1,
) -> list[tuple[int, float]]:
    """Default diagonal schedule: step k pairs level min(k, max_n) with alpha0 * ratio**k."""
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValidationError(f"count must be a positive integer, got {count!r}")
    if not (np.isfinite(alpha0) and alpha0 > 0):
        raise ValidationError(f"alpha0 must be positive, got {alpha0!r}")
    if not (np.isfinite(ratio) and 0 < ratio < 1):
        raise ValidationError(f"ratio must lie strictly between 0 and 1, got {ratio!r}")
    steps = []
    for k in range(1, int(count) + 1):
        n = k if max_n is None else min(k, int(max_n))
        steps.append((n, alpha0 * ratio**k))
    return steps


@dataclass(frozen=True)
class GalerkinRecord:
    step: int
    n: int
    alpha: float
    singular: bool
    norm_residual: float
    norm_constraint_residual: float
    norm_constraint_residual_target: Optional[float]


@dataclass(frozen=True)
class GalerkinReport:
    records: tuple[GalerkinRecord, ...]
    rhs_norm: float

    @property
    def final_norm_residual(self) -> float:
        nonsingular = [r for r in self.records if not r.singular]
        return nonsingular[-1].norm_residual if nonsingular else float("nan")


def galerkin_sweep(
    problem: ProblemInstance,
    family: SubspaceFamily,
    steps: Sequence[tuple[int, float]],
    target: Optional[Projector] = None,
    tols: Optional[Tolerances] = None,
) -> GalerkinReport:
    """Run the regularized solve with the constraint replaced level by level.

    Each step (n, alpha) solves the problem under the level-n projector, so
    the level-n component of the equation is matched exactly at every step.
    ``target`` defaults to the problem's own constraint when that is a
    projector; when present, the residual is additionally measured under it.

    Only the constraint changes between levels. Each level re-poses the
    problem (:meth:`ProblemInstance.constrained`), which keeps its spectrum,
    so a level costs O(n^2 k) and the Gram operator is never factored again.
    """
    if family.dim != problem.ambient_dim:
        raise ValidationError(
            f"family dimension {family.dim} does not match problem dimension {problem.ambient_dim}"
        )
    if target is None and isinstance(problem.constraint, Projector):
        target = problem.constraint
    step_list = [(int(n), float(alpha)) for n, alpha in steps]
    effective_tols = tols if tols is not None else problem.tols

    records = []
    for index, (n, alpha) in enumerate(step_list, start=1):
        projector = family_projector(family, n, tols=effective_tols)
        factor = factor_regularized(problem.constrained(projector))
        records.append(_galerkin_record(index, n, alpha, factor.solve(alpha), target))
    return GalerkinReport(records=tuple(records), rhs_norm=float(np.linalg.norm(problem.rhs)))


def _galerkin_record(
    index: int,
    n: int,
    alpha: float,
    solution: Union[RegularizedSolution, SingularSystem],
    target: Optional[Projector],
) -> GalerkinRecord:
    if isinstance(solution, SingularSystem):
        return GalerkinRecord(
            step=index,
            n=n,
            alpha=alpha,
            singular=True,
            norm_residual=float("nan"),
            norm_constraint_residual=float("nan"),
            norm_constraint_residual_target=None,
        )
    target_norm = (
        float(np.linalg.norm(target.apply(solution.residual))) if target is not None else None
    )
    return GalerkinRecord(
        step=index,
        n=n,
        alpha=alpha,
        singular=False,
        norm_residual=float(np.linalg.norm(solution.residual)),
        norm_constraint_residual=float(np.linalg.norm(solution.constraint_residual)),
        norm_constraint_residual_target=target_norm,
    )
