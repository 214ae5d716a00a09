"""Solvability analysis: alpha sweeps, verdicts, witnesses, and the range oracle.

The analyzer runs the regularized solve over a geometric alpha schedule and
reads the small-alpha behavior of the indicator (alpha times the costate):
a vanishing indicator marks the equation solvable with the constraint matched
exactly, a stable nonzero limit yields a witness vector that separates the
right-hand side from everything the equation can reach under the constraint.
An independent constrained least-squares oracle provides the second route for
cross-checking every verdict.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .hilbert import (
    ProblemInstance, Projector, ValidationError, _int_at_least, _numerical_rank, _positive_real, as_vector,
)
from .resolvent import RegularizedSolution, SingularSystem, factor_regularized

__all__ = [
    "AlphaSchedule",
    "Verdict",
    "SweepRecord",
    "SweepReport",
    "Decision",
    "OracleDecision",
    "InvertibilityReport",
    "alpha_sweep",
    "decide",
    "extract_witness",
    "witness_correlation",
    "range_oracle",
    "factor_invertibility",
]


# Below sqrt(tiny) alpha**2 is subnormal, and at lam = 0 the solve's lam / alpha**2 turns 0 / 0.
_SMALLEST_ALPHA = math.sqrt(np.finfo(float).tiny)
# Above sqrt(max) alpha**2 overflows, and the solve's lam / (alpha (lam + alpha)) becomes 0 for every lam.
_LARGEST_ALPHA = math.sqrt(np.finfo(float).max)


@dataclass(frozen=True)
class AlphaSchedule:
    """Geometric schedule alpha_k = alpha0 * ratio**k for k = 0..count-1.

    Its smallest alpha, alpha0 * ratio**(count - 1), must be at least
    sqrt(tiny), about 1.49e-154, the smallest float whose square is normal,
    and its largest, alpha0, at most sqrt(max), about 1.34e154, the largest
    float whose square is finite.
    """

    alpha0: float = 1.0
    ratio: float = 0.1
    count: int = 8

    def __post_init__(self) -> None:
        _positive_real(self.alpha0, "alpha0")
        _positive_real(self.ratio, "ratio", below=1)
        if not _int_at_least(self.count, 1):
            raise ValidationError(f"count must be a positive integer, got {self.count!r}")
        if self.alpha0 > _LARGEST_ALPHA:
            raise ValidationError(
                f"alpha schedule overflows: its largest alpha {self.alpha0:.3g} "
                f"is above sqrt(max) = {_LARGEST_ALPHA:.3g}, where alpha**2 overflows"
            )
        # min() keeps a count beyond the float range from overflowing the power
        smallest = self.alpha0 * self.ratio ** min(self.count - 1, sys.float_info.max)
        if smallest < _SMALLEST_ALPHA:
            raise ValidationError(
                f"alpha schedule underflows: its smallest alpha {smallest:.3g} "
                f"is below sqrt(tiny) = {_SMALLEST_ALPHA:.3g}, where alpha**2 is subnormal"
            )

    def values(self) -> list[float]:
        """Alphas in decreasing order."""
        return [self.alpha0 * self.ratio**k for k in range(self.count)]


class Verdict(enum.Enum):
    SOLVABLE = "SOLVABLE"
    NOT_SOLVABLE = "NOT_SOLVABLE"
    SINGULAR = "SINGULAR"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SweepRecord:
    """Scalar summary of one alpha step; ``indicator`` kept for limit tests."""

    alpha: float
    singular: bool
    norm_indicator: float
    norm_residual: float
    norm_constraint_residual: float
    indicator: Optional[np.ndarray]


@dataclass(frozen=True)
class SweepReport:
    """Records of a full schedule sweep, ordered by decreasing alpha."""

    problem: ProblemInstance
    schedule: AlphaSchedule
    records: tuple[SweepRecord, ...]

    @property
    def rhs_norm(self) -> float:
        return float(np.linalg.norm(self.problem.rhs))

    def nonsingular_records(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if not r.singular)


def _record(solution: Union[RegularizedSolution, SingularSystem]) -> SweepRecord:
    if isinstance(solution, SingularSystem):
        return SweepRecord(
            alpha=solution.alpha,
            singular=True,
            norm_indicator=math.nan,
            norm_residual=math.nan,
            norm_constraint_residual=math.nan,
            indicator=None,
        )
    return SweepRecord(
        alpha=solution.alpha,
        singular=False,
        norm_indicator=float(np.linalg.norm(solution.indicator)),
        norm_residual=float(np.linalg.norm(solution.residual)),
        norm_constraint_residual=float(np.linalg.norm(solution.constraint_residual)),
        indicator=solution.indicator,
    )


def alpha_sweep(
    problem: ProblemInstance,
    schedule: Optional[AlphaSchedule] = None,
) -> SweepReport:
    """Run the regularized solve at every alpha of the schedule.

    The problem is factored once (:func:`factor_regularized`) and the whole
    schedule is solved from that factor in one
    :meth:`~finapprox.resolvent.RegularizedFactor.solve_all`, whose stacked
    calls give each alpha the bits a solve of that alpha alone gives. A record
    keeps the indicator and three norms; the control is never formed.
    """
    if schedule is None:
        schedule = AlphaSchedule()
    records = [_record(solution) for solution in factor_regularized(problem).solve_all(schedule.values())]
    return SweepReport(problem=problem, schedule=schedule, records=tuple(records))


@dataclass(frozen=True)
class Decision:
    """Verdict of a sweep plus the evidence it rests on.

    ``witness`` and ``indicator_limit`` are populated exactly when the
    verdict is NOT_SOLVABLE: the limit is the stable indicator vector, the
    witness is its component outside the constraint's range.
    """

    verdict: Verdict
    witness: Optional[np.ndarray]
    indicator_limit: Optional[np.ndarray]
    diagnostics: Mapping[str, float]


def decide(report: SweepReport) -> Decision:
    """Map sweep behavior to a verdict.

    ``decision_tol`` is read from the problem's :class:`Tolerances`.
    SOLVABLE when the indicator norm at the smallest nonsingular alpha is at
    most ``decision_tol * ||h||`` and the last three indicator norms are
    non-increasing within ten percent. NOT_SOLVABLE when the last two
    indicator vectors agree within ``decision_tol * ||h||`` and both the
    limit and its component outside the constraint's range stay above the
    threshold; the witness is that outside component. SINGULAR when every
    scheduled alpha was singular, INCONCLUSIVE otherwise.
    """
    tol = report.problem.tols.decision_tol
    h_norm = report.rhs_norm
    threshold = tol * h_norm
    nonsingular = report.nonsingular_records()
    diagnostics: dict[str, float] = {
        "decision_tol": float(tol),
        "rhs_norm": h_norm,
        "nonsingular_count": float(len(nonsingular)),
    }
    if not nonsingular:
        return Decision(Verdict.SINGULAR, None, None, diagnostics)

    last = nonsingular[-1]
    diagnostics["final_alpha"] = last.alpha
    diagnostics["final_norm_indicator"] = last.norm_indicator

    tail = nonsingular[-3:]
    tail_nonincreasing = all(
        tail[i + 1].norm_indicator <= 1.1 * tail[i].norm_indicator for i in range(len(tail) - 1)
    )
    if last.norm_indicator <= threshold and tail_nonincreasing:
        return Decision(Verdict.SOLVABLE, None, None, diagnostics)

    if len(nonsingular) >= 2:
        previous = nonsingular[-2]
        step = float(np.linalg.norm(last.indicator - previous.indicator))
        diagnostics["tail_difference"] = step
        if step <= threshold and last.norm_indicator > threshold:
            witness = last.indicator - report.problem.project(last.indicator)
            witness_norm = float(np.linalg.norm(witness))
            diagnostics["witness_norm"] = witness_norm
            if witness_norm > threshold:
                return Decision(Verdict.NOT_SOLVABLE, witness, last.indicator, diagnostics)

    return Decision(Verdict.INCONCLUSIVE, None, None, diagnostics)


def extract_witness(report: SweepReport) -> np.ndarray:
    """Witness vector of a NOT_SOLVABLE sweep.

    The witness is v = (I - P) y for the stable indicator limit y. It is
    annihilated by the constraint map to rounding, and the inner products
    <image - h, v> stay near -||v||^2 for small alpha, certifying that no
    constraint-respecting approximation can reach h. Raises when the sweep
    does not have a stable nonzero limit.
    """
    decision = decide(report)
    if decision.verdict is not Verdict.NOT_SOLVABLE or decision.witness is None:
        raise ValidationError(
            f"witness extraction needs a stable nonzero indicator limit, verdict was {decision.verdict.value}"
        )
    return decision.witness


def witness_correlation(
    problem: ProblemInstance,
    witness: np.ndarray,
    schedule: Optional[AlphaSchedule] = None,
) -> list[tuple[float, float]]:
    """Inner products <image(alpha) - h, witness> along the schedule.

    Singular alphas are skipped. For a correct witness the values converge to
    -||witness||^2 as alpha decreases (equivalently -||y||^2 when the limit y
    already lies outside the constraint's range).
    """
    if schedule is None:
        schedule = AlphaSchedule()
    v = as_vector(witness, dim=problem.ambient_dim, name="witness")
    solutions = factor_regularized(problem).solve_all(schedule.values())
    return [(s.alpha, float(s.residual @ v)) for s in solutions if not isinstance(s, SingularSystem)]


@dataclass(frozen=True)
class OracleDecision:
    """Both range-criterion verdicts, reported separately.

    The decomposed route checks the two membership conditions
    P h in Range(P L) and (I - P) h in Range(L) by residuals. The
    constrained route minimizes ||L u - h|| subject to P L u = P h as a
    least-distance problem in the operator's singular coordinates;
    ``distance`` is the achieved minimum (infinity when the constraint set
    is empty). Both routes read one residual of the constraint rows: it is
    ``exact_part_residual``, and ``feasible`` says it is below the
    threshold. The two criteria are genuinely different tests and can
    disagree; ``agree`` just records whether they did.
    """

    decomposed_solvable: bool
    constrained_solvable: bool
    agree: bool
    exact_part_residual: float
    complement_residual: float
    feasible: bool
    distance: float
    control: Optional[np.ndarray]


def range_oracle(problem: ProblemInstance) -> OracleDecision:
    """Decide solvability directly from the operator, independent of sweeps.

    Works in the singular coordinates of the problem's SVD L = U S V^T,
    keeping the singular values above ``max(m, n) * eps * ||L||``: a control
    u reaches L u = U_r c with c = S_r V_r^T u, the free part is tested by
    ||(I - U_r U_r^T)(I - P) h||, and the constrained route minimizes
    ||c - U_r^T h|| under the constraint rows; the control is V_r (c / S_r).
    Every residual is held to ``oracle_tol * ||h||``, with ``oracle_tol``
    read from the problem's :class:`Tolerances`.

    Needs the operator; raises on Gram-only instances (a Gram operator alone
    does not determine what the equation can reach jointly with the
    constraint, which is what non-representable instances demonstrate).
    Also raises when the constraint rows times the singular values overflow.
    """
    if problem._operator is None:
        raise ValidationError(
            "range oracle needs the operator; this instance only carries a gram matrix"
        )
    l, h = problem._operator, problem.rhs
    threshold = problem.tols.oracle_tol * float(np.linalg.norm(h))
    spectrum = problem.spectrum
    # Singular values at or below max(m, n) eps ||L||_2 are the operator's rounding noise.
    noise, norm = max(l.shape) * np.finfo(float).eps, float(np.max(spectrum.singular_values, initial=0.0))
    r = _numerical_rank(spectrum.singular_values, noise, norm)
    u_r = spectrum.vectors[:, :r]
    s_r = spectrum.singular_values[:r]

    outside = h - problem.project(h)
    complement_residual = float(np.linalg.norm(outside - u_r @ (u_r.T @ outside)))

    # Constraint rows: Q^T for a projector (||P v|| = ||Q^T v||), P itself
    # for a raw matrix. On w = V_r^T u they act as M = rows U_r S_r. Their
    # rank is read from the singular values of M against the operator's
    # noise floor: rows U_r alone would count rounding-level entries, and
    # inverting them yields spurious solutions. A thin QR M^T = Z T and an
    # SVD T = W diag(sv) Y^T give M = Y diag(sv) (Z W)^T.
    if isinstance(problem.constraint, Projector):
        rows = problem.constraint.basis.T
    else:
        rows = problem.constraint
    b = rows @ h
    m = rows @ u_r
    with np.errstate(over="ignore"):
        m *= s_r
    if not np.all(np.isfinite(m)):
        raise ValidationError("range oracle overflows: the constraint rows times the singular values are not finite")
    z, t = np.linalg.qr(m.T)
    del m  # freed before the SVD's workspace is taken
    w, sv, yt = np.linalg.svd(t, full_matrices=False)
    rank = _numerical_rank(sv, noise, norm)
    right = z @ w[:, :rank]
    del z, t, w
    w_particular = right @ ((yt[:rank] @ b) / sv[:rank])
    exact_residual = float(np.linalg.norm(rows @ (u_r @ (s_r * w_particular)) - b))
    feasible = exact_residual <= threshold
    decomposed = feasible and complement_residual <= threshold

    if not feasible:
        distance = math.inf
        control = None
    else:
        # The constraint fixes c = S_r w along span(S_r^{-1} right) and leaves
        # it free across it: the nearest feasible c moves U_r^T h along it.
        target = u_r.T @ h
        right /= s_r[:, None]
        fixed, _ = np.linalg.qr(right)
        c = target - fixed @ (fixed.T @ (target - s_r * w_particular))
        control = spectrum.right[:r].T @ (c / s_r)
        distance = float(np.linalg.norm(l @ control - h))
    constrained = feasible and distance <= threshold

    return OracleDecision(
        decomposed_solvable=bool(decomposed),
        constrained_solvable=bool(constrained),
        agree=bool(decomposed == constrained),
        exact_part_residual=exact_residual,
        complement_residual=complement_residual,
        feasible=bool(feasible),
        distance=distance,
        control=control,
    )


@dataclass(frozen=True)
class InvertibilityReport:
    alpha: float
    smallest_singular_value: float
    largest_singular_value: float
    invertible: bool


def factor_invertibility(alpha: float, problem: ProblemInstance) -> InvertibilityReport:
    """Invertibility certificate for the factor I - alpha (alpha I + G)^{-1} P.

    The regularized operator factors as (alpha I + G) times this matrix, and
    alpha I + G is always invertible for alpha > 0, so invertibility of the
    factor certifies invertibility of the whole regularized system.
    """
    _positive_real(alpha, "alpha")
    n = problem.ambient_dim
    shifted = alpha * np.eye(n) + problem.gram
    applied = np.linalg.solve(shifted, problem.constraint_matrix)
    q = np.eye(n) - alpha * applied
    s = np.linalg.svd(q, compute_uv=False)
    largest = float(s[0]) if s.size else 0.0
    smallest = float(s[-1]) if s.size else 0.0
    return InvertibilityReport(
        alpha=float(alpha),
        smallest_singular_value=smallest,
        largest_singular_value=largest,
        invertible=_numerical_rank(s, problem.tols.singular_tol) == s.size,
    )
