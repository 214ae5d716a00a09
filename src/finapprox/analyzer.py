"""Solvability analysis: alpha sweeps, verdicts, witnesses, and the range oracle.

The analyzer runs the regularized solve over a geometric alpha schedule and
decides from the alpha -> 0 limit of the indicator (alpha times the costate),
computed in closed form: a zero limit marks the equation solvable with the
constraint matched exactly, a nonzero limit yields a witness vector that
separates the right-hand side from everything the equation can reach under
the constraint. An independent constrained least-squares oracle provides the
second route for cross-checking every verdict.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .hilbert import (
    ProblemInstance, ValidationError, _dense_constraint, _int_at_least, _norm, _numerical_rank, _positive_real, as_vector,
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
    """Scalar summary of one alpha step: its alpha, whether it was singular, and three norms."""

    alpha: float
    singular: bool
    norm_indicator: float
    norm_residual: float
    norm_constraint_residual: float


@dataclass(frozen=True)
class SweepReport:
    """Records of a full schedule sweep, ordered by decreasing alpha."""

    problem: ProblemInstance
    schedule: AlphaSchedule
    records: tuple[SweepRecord, ...]

    @property
    def rhs_norm(self) -> float:
        return _norm(self.problem.rhs)

    def nonsingular_records(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if not r.singular)


def _record(solution: Union[RegularizedSolution, SingularSystem]) -> SweepRecord:
    if isinstance(solution, SingularSystem):
        return SweepRecord(solution.alpha, True, math.nan, math.nan, math.nan)
    return SweepRecord(
        alpha=solution.alpha,
        singular=False,
        norm_indicator=_norm(solution.indicator),
        norm_residual=_norm(solution.residual),
        norm_constraint_residual=_norm(solution.constraint_residual),
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
    keeps three norms; the control is never formed.
    """
    if schedule is None:
        schedule = AlphaSchedule()
    records = [_record(solution) for solution in factor_regularized(problem).solve_all(schedule.values())]
    return SweepReport(problem=problem, schedule=schedule, records=tuple(records))


@dataclass(frozen=True)
class Decision:
    """Verdict of a sweep plus the evidence it rests on.

    ``witness`` and ``indicator_limit`` are populated exactly when the
    verdict is NOT_SOLVABLE: the limit is y0, the indicator's closed-form
    alpha -> 0 limit, the witness is its component (I - P) y0.
    """

    verdict: Verdict
    witness: Optional[np.ndarray]
    indicator_limit: Optional[np.ndarray]
    diagnostics: Mapping[str, float]


def decide(report: SweepReport) -> Decision:
    """Verdict from the alpha -> 0 limit of the indicator y(alpha) = alpha T_alpha^{-1} h.

    With N the kernel columns of the problem's :class:`Spectrum` at
    ``rank_tol``, an orthonormal basis of ker G, the limit is
    y0 = N (N^T (I - P) N)^{-1} N^T h (Kato, *Perturbation Theory*, ch. II).
    SINGULAR when every scheduled alpha was singular. SOLVABLE when N is
    empty or ||N^T h|| <= decision_tol ||h||, unless N^T (I - P) N is
    singular at ``singular_tol``: then y(alpha) need not converge, and the
    verdict is INCONCLUSIVE. Otherwise NOT_SOLVABLE with witness
    (I - P) y0 when that is above decision_tol ||h||, INCONCLUSIVE if not.
    """
    problem, tols = report.problem, report.problem.tols
    diagnostics: dict[str, float] = {"nonsingular_count": float(len(report.nonsingular_records()))}
    if not diagnostics["nonsingular_count"]:
        return Decision(Verdict.SINGULAR, None, None, diagnostics)
    spectrum, n = problem.spectrum, problem.ambient_dim
    r = spectrum.rank(tols.rank_tol)
    diagnostics["rank"] = float(r)
    if r == n:
        diagnostics["kernel_rhs_norm"] = 0.0
        return Decision(Verdict.SOLVABLE, None, None, diagnostics)

    kernel = spectrum.leading(n)[0][:, r:]
    coords = kernel.T @ problem.rhs
    diagnostics["kernel_rhs_norm"] = _norm(coords)
    pinched = np.eye(n - r) - kernel.T @ problem.project(kernel)
    if _numerical_rank(np.linalg.svd(pinched, compute_uv=False), tols.singular_tol) < n - r:
        return Decision(Verdict.INCONCLUSIVE, None, None, diagnostics)
    threshold = tols.decision_tol * _norm(problem.rhs)
    if diagnostics["kernel_rhs_norm"] <= threshold:
        return Decision(Verdict.SOLVABLE, None, None, diagnostics)
    limit = kernel @ np.linalg.solve(pinched, coords)
    witness = limit - problem.project(limit)
    diagnostics["witness_norm"] = _norm(witness)
    if diagnostics["witness_norm"] > threshold:
        return Decision(Verdict.NOT_SOLVABLE, witness, limit, diagnostics)
    return Decision(Verdict.INCONCLUSIVE, None, None, diagnostics)


def extract_witness(report: SweepReport) -> np.ndarray:
    """Witness vector of a NOT_SOLVABLE sweep.

    The witness is v = (I - P) y0 for the indicator limit y0 of :func:`decide`.
    It is annihilated by the constraint map to rounding, and the inner products
    <image - h, v> stay near -||v||^2 for small alpha, certifying that no
    constraint-respecting approximation can reach h. Raises when the verdict
    is not NOT_SOLVABLE.
    """
    decision = decide(report)
    if decision.verdict is not Verdict.NOT_SOLVABLE:
        raise ValidationError(
            f"witness extraction needs a nonzero indicator limit, verdict was {decision.verdict.value}"
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
    keeping its rank r at ``rank_tol`` (:meth:`~finapprox.hilbert.Spectrum.rank`): a control
    u reaches L u = U_r c with c = S_r V_r^T u, the free part is tested by
    ||(I - U_r U_r^T)(I - P) h||, and the constrained route minimizes
    ||c - U_r^T h|| under the constraint rows; the control is V_r (c / S_r).
    Every residual is held to ``oracle_tol * ||h||``, with ``oracle_tol``
    read from the problem's :class:`Tolerances`.

    Needs the operator; raises on Gram-only instances (a Gram operator alone
    does not determine what the equation can reach jointly with the
    constraint, which is what non-representable instances demonstrate).
    Also raises when a product of the constraint rows or the solve overflows.
    """
    if problem._operator is None:
        raise ValidationError(
            "range oracle needs the operator; this instance only carries a gram matrix"
        )
    l, h = problem._operator, problem.rhs
    threshold = problem.tols.oracle_tol * _norm(h)
    spectrum = problem.spectrum
    r = spectrum.rank(problem.tols.rank_tol)
    u_r, s_r = spectrum.leading(r)

    # On w = V_r^T u the constraint rows act as M = rows U_r S_r. Their
    # rank is read from the singular values of M against the noise floor
    # max(m, n) eps ||L||_2 of a product with L: rows U_r alone would count
    # rounding-level entries, and inverting them yields spurious solutions.
    # A thin QR M^T = Z T and an SVD T = W diag(sv) Y^T give M = Y diag(sv) (Z W)^T.
    rows = problem.constraint_rows
    with np.errstate(all="ignore"):  # an array past the float range is refused
        m = rows @ u_r
        m *= s_r
        if not np.all(np.isfinite(m)):
            raise ValidationError("range oracle overflows: the constraint rows times singular values are not finite")
        outside = h - problem.project(h)
        complement_residual = _norm(outside - u_r @ (u_r.T @ outside))
        z, t = np.linalg.qr(m.T)
        del m  # freed before the SVD's workspace is taken
        w, sv, yt = np.linalg.svd(t, full_matrices=False)
        rank = _numerical_rank(sv, max(l.shape) * np.finfo(float).eps, float(np.max(s_r, initial=0.0)))
        right = z @ w[:, :rank]
        del z, t, w
        b = rows @ h
        w_particular = right @ ((yt[:rank] @ b) / sv[:rank])
        exact_residual = _norm(rows @ (u_r @ (s_r * w_particular)) - b)
        feasible = exact_residual <= threshold
        distance, control = math.inf, None
        if feasible:
            # The constraint fixes c = S_r w along span(S_r^{-1} right) and leaves
            # it free across it: the nearest feasible c moves U_r^T h along it.
            target = u_r.T @ h
            right /= s_r[:, None]
            fixed, _ = np.linalg.qr(right)
            c = target - fixed @ (fixed.T @ (target - s_r * w_particular))
            control = spectrum.right[:r].T @ (c / s_r)
            distance = _norm(l @ control - h)
    if not np.all(np.isfinite([complement_residual, exact_residual, distance if feasible else 0.0])):
        raise ValidationError("range oracle overflows: the constraint rows applied to h, or its solve, are not finite")
    decomposed = feasible and complement_residual <= threshold
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
    applied = np.linalg.solve(shifted, _dense_constraint(problem.constraint))
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
