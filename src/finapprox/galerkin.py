"""Galerkin approximation of the constraint by nested subspace families.

When the constraint's subspace is too large or only known through a family of
finite approximations, the sweep is run against projectors onto nested
subspaces H_1 subset H_2 subset ... while alpha decreases along a diagonal
schedule. Each step still matches its own finite constraint exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .analyzer import AlphaSchedule, _record
from .hilbert import (
    ProblemInstance,
    Projector,
    ValidationError,
    _int_at_least,
    _norm,
    _readonly,
    as_operator,
    as_vector,
)
from .resolvent import factor_regularized

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
    """Nested family of subspaces: one orthonormal basis read by column prefixes.

    Level n, for 1 <= n <= max_n, is the span of the first ``sizes[n - 1]``
    columns of ``basis``; level 0 is the zero subspace. The basis is trusted
    to be orthonormal, as a :class:`Projector` basis is. Construction checks
    its shape and finiteness and that the levels nest: ``sizes`` is a
    nondecreasing tuple of integers from at least 1 up to the column count.
    The basis is made read-only.
    """

    basis: np.ndarray
    sizes: tuple[int, ...]
    description: str

    def __post_init__(self) -> None:
        basis = as_operator(self.basis, name="family basis")
        sizes = tuple(self.sizes)
        nested = all(_int_at_least(k, 1) for k in sizes) and all(a <= b for a, b in zip(sizes, sizes[1:]))
        if not (nested and sizes and sizes[-1] == basis.shape[1]):
            raise ValidationError(
                f"family level sizes must be integers rising from at least 1 to the basis's "
                f"{basis.shape[1]} columns without falling, got {sizes!r}"
            )
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "sizes", tuple(int(k) for k in sizes))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def max_n(self) -> int:
        return len(self.sizes)


def coordinate_family(dim: int) -> SubspaceFamily:
    """Nested spans of the first n coordinate directions in R^dim."""
    if not _int_at_least(dim, 1):
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    return SubspaceFamily(
        basis=np.eye(int(dim)),
        sizes=tuple(range(1, int(dim) + 1)),
        description=f"first coordinate directions of R^{int(dim)}",
    )


def midpoint_grid(grid_size: int) -> np.ndarray:
    """Midpoints (j + 1/2) / M of a uniform partition of (0, 1)."""
    if not _int_at_least(grid_size, 1):
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

    Level n spans the samples of {1, sin(2 pi x), ..., sin(2 pi n x)} in the
    discrete inner product embedding. Levels run up to floor((M - 2) / 2),
    which keeps every mode strictly below the grid's aliasing limit. There
    the sampled modes are exactly orthogonal (DST-II orthogonality), each
    with squared norm M/2 and orthogonal to the constant, so the basis is
    written in closed form: column 0 is 1/sqrt(M) and column j is
    sqrt(2/M) sin(pi r / M) with r = j(2m + 1) mod 2M at row m. Reducing the
    phase exactly in integers keeps np.sin on arguments below 2 pi, where it
    is accurate to rounding, and leaves only 2M distinct values: they are
    computed once, as a table, and gathered at the phases.
    """
    if not _int_at_least(grid_size, 4):
        raise ValidationError(f"sine family needs a grid of at least 4 points, got {grid_size!r}")
    m = int(grid_size)
    max_n = (m - 2) // 2
    phase = np.outer(2 * np.arange(m) + 1, np.arange(max_n + 1))
    phase %= 2 * m
    table = np.sin(np.arange(2 * m) * (np.pi / m))
    table *= np.sqrt(2.0 / m)
    basis = table[phase]
    basis[:, 0] = 1.0 / np.sqrt(float(m))
    return SubspaceFamily(
        basis=basis,
        sizes=tuple(range(2, max_n + 2)),
        description=f"constant plus first sine modes on {m} midpoints of (0, 1)",
    )


def family_projector(family: SubspaceFamily, n: int) -> Projector:
    """Orthogonal projector onto the family's level-n subspace.

    Its basis is the first k_n columns of the family's basis, with no
    orthonormalization; the top level is the family's own array. Level 0 is
    the zero projector.
    """
    if not (_int_at_least(n, 0) and n <= family.max_n):
        raise ValidationError(
            f"family level must be an integer in [0, {family.max_n}], got {n!r}"
        )
    k = family.sizes[n - 1] if n else 0
    basis = family.basis[:, :k]
    # A proper prefix is a strided view, and BLAS matrix-vector products can
    # round a strided operand differently from a contiguous one; the copy (k
    # columns) keeps each level's results independent of the family's size.
    return Projector(basis=basis if basis.flags.c_contiguous else _readonly(basis))


def strong_convergence_probe(
    family: SubspaceFamily,
    target: Projector,
    probes: Sequence[np.ndarray],
) -> np.ndarray:
    """Defect table ||P_n x - P x|| for each probe x and each level n.

    Row n-1 holds level n, columns follow the probes. When every family level
    lies inside the target's range, each column is non-increasing, and strong
    convergence of the family to the target shows up as columns decreasing
    toward zero. P_n x is updated from each level's new columns only.
    """
    if target.dim != family.dim:
        raise ValidationError(
            f"target projector dimension {target.dim} does not match family dimension {family.dim}"
        )
    probe_list = [as_vector(x, dim=family.dim, name=f"probe {i}") for i, x in enumerate(probes)]
    x = np.column_stack(probe_list) if probe_list else np.zeros((family.dim, 0))
    basis = family.basis
    coefficients = basis.T @ x
    targeted = target.apply(x)
    projected = np.zeros_like(x)
    table = np.empty((family.max_n, x.shape[1]))
    done = 0
    for row, k in enumerate(family.sizes):
        projected += basis[:, done:k] @ coefficients[done:k]
        done = k
        table[row] = np.linalg.norm(projected - targeted, axis=0)
    return table


def diagonal_steps(
    count: int = 8,
    max_n: Optional[int] = None,
    alpha0: float = 1.0,
    ratio: float = 0.1,
) -> list[tuple[int, float]]:
    """Default diagonal schedule: step k pairs level min(k, max_n) with alpha0 * ratio**k.

    Its last alpha, alpha0 * ratio**count, one power past the
    :class:`AlphaSchedule` of the same arguments, is held to that schedule's
    smallest-alpha bound.
    """
    schedule = AlphaSchedule(alpha0=alpha0, ratio=ratio, count=count)  # validates the three arguments
    alphas = replace(schedule, count=count + 1).values()[1:]  # and the last alpha
    return [(k if max_n is None else min(k, int(max_n)), alpha) for k, alpha in enumerate(alphas, 1)]


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
) -> GalerkinReport:
    """Run the regularized solve with the constraint replaced level by level.

    Each step (n, alpha) solves the problem under the level-n projector, so
    the level-n component of the equation is matched exactly at every step.
    When the problem's own constraint is a projector, the residual is also
    measured under it. A step is the alpha sweep's solve with the level-n
    projector in place of P, so it is recorded by the sweep's own rule.

    The levels read the equation through G alone, so they are posed on the
    problem's Gram-only view (:meth:`ProblemInstance.gram_view`): one
    decomposition of G serves every level, the operator's SVD never runs,
    and no control is formed. Only the constraint changes between levels; each
    level re-poses that view (:meth:`ProblemInstance.constrained`), which
    keeps its spectrum, so a level costs O(n^2 k).
    """
    if family.dim != problem.ambient_dim:
        raise ValidationError(
            f"family dimension {family.dim} does not match problem dimension {problem.ambient_dim}"
        )
    target = problem.constraint if isinstance(problem.constraint, Projector) else None
    view = problem.gram_view()
    records = []
    for index, (n, alpha) in enumerate(steps, start=1):
        n, alpha = int(n), float(alpha)
        solution = factor_regularized(view.constrained(family_projector(family, n))).solve(alpha)
        record = _record(solution)
        target_norm = None
        if target is not None and not record.singular:
            target_norm = _norm(target.apply(solution.residual))
        records.append(GalerkinRecord(
            step=index,
            n=n,
            alpha=record.alpha,
            singular=record.singular,
            norm_residual=record.norm_residual,
            norm_constraint_residual=record.norm_constraint_residual,
            norm_constraint_residual_target=target_norm,
        ))
    return GalerkinReport(records=tuple(records), rhs_norm=_norm(problem.rhs))

