"""Regularized solves of the constrained operator equation.

For a problem with Gram operator G, constraint map P, and right-hand side h,
the regularized system at parameter alpha > 0 is

    (alpha * (I - P) + G) costate = h.

Its solution carries the canonical control (operator^T costate), the vector
that control reaches (G costate), and the indicator alpha * costate whose
small-alpha limit decides solvability. Only alpha changes along a sweep, so
:func:`factor_regularized` factors the problem once and every alpha is then a
small capacitance solve, all alphas of a schedule in the same stacked calls.
Singular systems are reported as values, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .hilbert import (
    ProblemInstance, Projector, ValidationError, _dense_constraint, _exponent, _Monomial, _norm, _numerical_rank,
    _positive_real,
)

__all__ = [
    "RegularizedSolution",
    "SingularSystem",
    "IdentityReport",
    "RegularizedFactor",
    "regularized_operator",
    "factor_regularized",
    "solve_regularized",
    "identity_residuals",
]


@dataclass(frozen=True)
class RegularizedSolution:
    """One regularized solve.

    Attributes
    ----------
    alpha : regularization parameter, positive.
    costate : solution of (alpha (I - P) + G) costate = h.
    control : operator^T costate, present when the problem knows its operator.
    image : G @ costate, the right-hand side the control actually reaches.
    indicator : alpha * costate; its small-alpha limit is zero exactly on
        solvable problems.
    residual : image - h.
    constraint_residual : P @ residual; zero to rounding whenever P is a true
        orthogonal projector and the system was nonsingular.
    """

    alpha: float
    costate: np.ndarray
    image: np.ndarray
    indicator: np.ndarray
    residual: np.ndarray
    constraint_residual: np.ndarray
    _operator: Union[np.ndarray, _Monomial, None] = field(repr=False)

    @property
    def control(self) -> Optional[np.ndarray]:
        """operator^T costate, formed on read; None for a Gram-only problem."""
        return None if self._operator is None else self._operator.T @ self.costate


@dataclass(frozen=True)
class SingularSystem:
    """Report for a regularized system that is singular at this alpha.

    ``kernel_vector`` is a unit vector annihilated by the system matrix. When
    the right-hand side has a component in the numerical kernel above
    ``decision_tol`` times its norm, the threshold of the verdict, that
    component (normalized) is reported, since it certifies the right-hand
    side unreachable; otherwise the kernel direction of smallest eigenvalue
    (or singular value) is used.

    For a :class:`~finapprox.hilbert.Projector` constraint with basis Q,
    ``smallest_eigenvalue`` is the smallest eigenvalue of G_QQ = Q^T G Q.
    Because G is positive semidefinite, the system is singular at every
    alpha exactly when that value is at most ``singular_tol`` times the
    largest eigenvalue of G, so such reports do not depend on alpha. For raw
    constraint matrices it is the smallest singular value of the assembled
    system T, read from the SVD that finds the kernel. When the matrix passes
    the projector checks, T is symmetric positive semidefinite, so that value
    is its smallest eigenvalue to rounding.
    """

    alpha: float
    kernel_vector: np.ndarray
    smallest_eigenvalue: float


@dataclass(frozen=True)
class IdentityReport:
    """Defect norms of the three identities a nonsingular solve must satisfy.

    basic_identity_defect  : || G z - (h - alpha (I - P) z) ||
    error_form_defect      : || (image - h) + (I - P) indicator ||
    constraint_defect      : || P (image - h) ||

    For a true projector constraint all three are at rounding level in ||h||.
    The error form holds for raw constraints as well; the constraint defect
    does not, which is exactly what the raw-constraint counterexample shows.
    """

    basic_identity_defect: float
    error_form_defect: float
    constraint_defect: float


# Every alpha-dependent array is formed under this one errstate and read by _refuse_out_of_range.
_QUIET = np.errstate(all="ignore")


@_QUIET
def regularized_operator(alpha: float, problem: ProblemInstance) -> np.ndarray:
    """Assemble alpha * (I - P) + G, refusing an alpha at which an entry is not finite.

    Exactly symmetric whenever the constraint is a true projector, because
    both stored factors are exactly symmetric.
    """
    _positive_real(alpha, "alpha")
    return _assemble(np.array([[[alpha]]], dtype=float), problem)[0]


def _assemble(alpha: np.ndarray, problem: ProblemInstance) -> np.ndarray:
    """The (s, n, n) stack of alpha * (I - P) + G for the (s, 1, 1) stack of alphas, each finite."""
    t = alpha * (np.eye(problem.ambient_dim) - _dense_constraint(problem.constraint)) + problem.gram
    _refuse_out_of_range(alpha, "T_alpha = alpha (I - P) + G is not finite", t)
    return t


def _refuse_out_of_range(alpha: np.ndarray, reason: str, *stacks: np.ndarray, usable=True) -> None:
    """The one out-of-range rule: raise at the first alpha of the (s, 1, 1) stack ``alpha`` whose
    ``usable`` flag is False or whose slice of an (s, ...) array in ``stacks`` is not all finite."""
    for stack in stacks:
        usable = usable & np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
    if not np.all(usable):
        raise ValidationError(f"alpha {alpha.flat[np.argmin(usable)]:.3g} is out of range for this problem: {reason}")


@dataclass(frozen=True)
class RegularizedFactor:
    """Factorization of the regularized system shared by every alpha.

    For a :class:`Projector` constraint with orthonormal basis Q of rank k,
    the eigendecomposition G = U diag(lam) U^T that the problem's
    :class:`~finapprox.hilbert.Spectrum` holds serves the whole schedule:
    the SVD of L, computed on the problem's first use, or the
    eigendecomposition of G for Gram-only input and for the Gram-only view
    that Galerkin levels are posed on. Both are read off the entries for a
    monomial L or a diagonal G, and then U is a permutation kept as its
    entries, so B = U^T Q and every product with U or U^T below is a row
    gather or scatter; so is each product with G, kept as its diagonal
    entries. Either order of the eigenpairs serves. With A = G + alpha I
    and B = U^T Q, the Woodbury identity gives

        T_alpha^{-1} = A^{-1} + A^{-1} Q C_alpha^{-1} Q^T A^{-1},
        C_alpha = B^T diag(lam / (alpha (lam + alpha))) B,

    so each alpha costs two k x k LU solves (the solve and its refinement)
    and O(n^2 + n k^2) work. Because G is positive semidefinite, T_alpha is
    singular for every alpha > 0 exactly when G_QQ = Q^T G Q is, and then its
    kernel is Q ker G_QQ; that test runs once, here, instead of once per alpha,
    and forms eigenvectors of G_QQ only within rounding of singular.

    Raw constraint matrices keep the generic path: ``eigenvalues`` is None
    and the assembled matrix T_alpha is factored at each alpha.

    :meth:`solve_all` solves a list of s alphas at once. The vectors of all
    alphas are one (s, n, 1) stack, their capacitance matrices one (s, k, k)
    stack (their assembled T_alpha one (s, n, n) stack on the raw path), and
    each step is one stacked ``np.matmul``, ``np.linalg.solve`` or
    ``np.linalg.svd``. Each slice of a stacked call is the BLAS or LAPACK call
    that one alpha alone makes, so an alpha's result does not depend on the
    alphas solved with it; :meth:`solve` is :meth:`solve_all` with one alpha.

    Attributes
    ----------
    problem : the problem this factor solves.
    eigenvalues : eigenvalues of G, clamped at zero, in the spectrum's order.
    eigenvectors : the matching orthonormal eigenvectors U, an array or a
        permutation (see :class:`~finapprox.hilbert.Spectrum`).
    basis_coords : B = U^T Q, the constraint basis in G's eigenbasis.
    smallest_eigenvalue : smallest eigenvalue of G_QQ (infinite for the zero
        projector, whose system is never singular). Clear of the singular
        threshold it comes from the eigenvalues-only routine and equals eigh's
        to rounding; within rounding of it, and on every singular factor, it
        is eigh's.
    kernel_vector : unit kernel vector of T_alpha when the system is singular
        at every alpha, otherwise None.
    """

    problem: ProblemInstance
    eigenvalues: Optional[np.ndarray] = None
    eigenvectors: Optional[np.ndarray] = None
    basis_coords: Optional[np.ndarray] = None
    smallest_eigenvalue: float = math.inf
    kernel_vector: Optional[np.ndarray] = None

    def solve(self, alpha: float) -> Union[RegularizedSolution, SingularSystem]:
        """Regularized solve at ``alpha``, with one step of iterative refinement."""
        return self.solve_all([alpha])[0]

    @_QUIET
    def solve_all(self, alphas: Sequence[float]) -> list[Union[RegularizedSolution, SingularSystem]]:
        """Regularized solves at every alpha of ``alphas``, in order, each with one refinement step.

        Raises :class:`~finapprox.hilbert.ValidationError` at the first alpha whose
        arrays leave the float range: G's largest eigenvalue gets weight 0 (C_alpha
        would be the zero matrix), C_alpha is singular, or T_alpha or the solve is not finite.
        """
        for alpha in alphas:
            _positive_real(alpha, "alpha")
        # Each alpha's vectors are one (n, 1) column of an (s, n, 1) stack.
        alpha = np.array(alphas, dtype=float)[:, None, None]
        if self.eigenvalues is None:
            return _solve_generic(alpha, self.problem)
        if self.kernel_vector is not None:
            return [SingularSystem(float(alpha), self.kernel_vector, self.smallest_eigenvalue) for alpha in alphas]
        lam, u, b = self.eigenvalues, self.eigenvectors, self.basis_coords
        shifted = lam[:, None] + alpha
        capacitance = None
        if b.shape[1]:
            weights = lam[:, None] / (alpha * shifted)
            top = int(np.argmax(lam))
            reason = f"with the largest Gram eigenvalue {lam[top]:.3g}, the weight lam / (alpha (lam + alpha)) is 0"
            _refuse_out_of_range(alpha, reason, usable=weights[:, top, 0] > 0.0)
            capacitance = np.empty((len(alphas), b.shape[1], b.shape[1]))
            for c, w in zip(capacitance, weights[..., 0]):
                c[...] = (b.T * w) @ b

        def apply_inverse(coords: np.ndarray) -> np.ndarray:
            """T_alpha^{-1} r for every alpha, from the coordinates U^T r."""
            y = coords / shifted
            if capacitance is not None:
                try:
                    y += (b @ np.linalg.solve(capacitance, b.T @ y)) / shifted
                except np.linalg.LinAlgError:  # slogdet runs solve's LU: its sign is 0 where a pivot is 0
                    _refuse_out_of_range(alpha, "C_alpha is singular", usable=np.linalg.slogdet(capacitance)[0] != 0)
                    raise
            return u @ y

        problem = self.problem
        # Solving for 2^-e h and scaling z back by 2^e is exact clear of subnormals,
        # and keeps T_alpha z in range for an h at the top of the float range.
        exponent = _exponent(problem.rhs)
        h = np.ldexp(problem.rhs, -exponent)[:, None]
        z = apply_inverse(u.T @ h)  # U^T h is the same for every alpha
        # One refinement step against the matrix-free T_alpha tightens the
        # residual of ill-conditioned solves at small alpha.
        applied = problem._gram @ z + alpha * (z - problem.project(z))
        z = z + apply_inverse(u.T @ (h - applied))
        return _solutions(alpha, np.ldexp(z, exponent), problem)


def factor_regularized(problem: ProblemInstance) -> RegularizedFactor:
    """Factor the regularized system of ``problem`` once for every alpha.

    Projector constraints get the spectral factor described in
    :class:`RegularizedFactor`, read from the problem's spectrum. That read
    runs the problem's one decomposition if nothing has read it before; no
    other factorization of G happens here. The SINGULAR test reads the
    eigenvalues of G_QQ alone (``eigvalsh``); ``eigh`` runs only when the
    smallest is not clear of ``singular_tol * lam_max`` by the rounding margin
    4 k eps lam_max, so every SINGULAR decision and kernel vector is eigh's.
    Raw constraint matrices get a factor that solves each alpha by the
    generic dense route.
    """
    if not isinstance(problem.constraint, Projector):
        return RegularizedFactor(problem=problem)
    # G is validated positive semidefinite; negative eigenvalues are rounding
    lam, u = np.maximum(problem.spectrum.gram_values, 0.0), problem.spectrum.vectors
    q = problem.constraint.basis
    b = u.T @ q
    smallest = math.inf
    kernel = None
    if q.shape[1]:
        pinched = (b.T * lam) @ b
        lam_max = float(np.max(lam))
        mu = np.linalg.eigvalsh(pinched)
        # eigh and eigvalsh each return eigenvalues within about k eps ||G_QQ||_2
        # <= k eps lam_max of the exact ones (Golub & Van Loan, ch. 8), so theirs
        # differ by at most 2 k eps lam_max; twice that clears eigh's threshold.
        margin = 4 * mu.size * np.finfo(float).eps * lam_max
        if not mu[0] > problem.tols.singular_tol * lam_max + margin:
            mu, v = np.linalg.eigh(pinched)
            nullity = mu.size - _numerical_rank(mu, problem.tols.singular_tol, lam_max)
            if nullity:  # mu ascends, so the kernel is its leading columns
                kernel = _kernel_vector(q @ v[:, :nullity], q @ v[:, 0], problem)
        smallest = float(mu[0])
    return RegularizedFactor(
        problem=problem,
        eigenvalues=lam,
        eigenvectors=u,
        basis_coords=b,
        smallest_eigenvalue=smallest,
        kernel_vector=kernel,
    )


def _kernel_vector(null_basis: np.ndarray, fallback: np.ndarray, problem: ProblemInstance) -> np.ndarray:
    """The normalized kernel component of ``h`` when it has one, else ``fallback``.

    The component counts when it exceeds ``decision_tol`` of ||h||, the
    threshold of the verdict, so scaling ``h`` does not change the answer.
    """
    h = problem.rhs
    kernel_component = null_basis @ (null_basis.T @ h)
    component_norm = _norm(kernel_component)
    if _numerical_rank(component_norm, problem.tols.decision_tol, _norm(h)):
        return kernel_component / component_norm
    return fallback


def solve_regularized(
    alpha: float, problem: ProblemInstance
) -> Union[RegularizedSolution, SingularSystem]:
    """Solve the regularized system at ``alpha``; see :class:`RegularizedFactor`.

    Sweeps over several alphas should call :func:`factor_regularized` once
    and solve from the factor instead.
    """
    return factor_regularized(problem).solve(alpha)


def _solutions(alpha: np.ndarray, z: np.ndarray, problem: ProblemInstance) -> list[RegularizedSolution]:
    """One solution per alpha from the (s, 1, 1) alphas and the (s, n, 1) costates, each finite."""
    image = problem._gram @ z
    residual = image - problem.rhs[:, None]
    constraint_residual = problem.project(residual)
    indicator = alpha * z
    _refuse_out_of_range(alpha, "its solve is not finite", z, image, residual, constraint_residual, indicator)
    return [
        RegularizedSolution(
            alpha=float(alpha[i, 0, 0]),
            costate=z[i, :, 0],
            image=image[i, :, 0],
            indicator=indicator[i, :, 0],
            residual=residual[i, :, 0],
            constraint_residual=constraint_residual[i, :, 0],
            _operator=problem._operator,
        )
        for i in range(alpha.shape[0])
    ]


def _solve_generic(alpha: np.ndarray, problem: ProblemInstance) -> list[Union[RegularizedSolution, SingularSystem]]:
    """Dense route for raw constraints: SVD guard, one LU solve, one refinement.

    The s matrices T_alpha of the (s, 1, 1) stack of alphas are one stack, and
    the guard, the solve and the refinement one stacked call each. An alpha
    whose smallest singular value falls below ``singular_tol`` times the
    largest gets a :class:`SingularSystem`.
    """
    t = _assemble(alpha, problem)
    exponent = _exponent(problem.rhs)  # solved for 2^-e h as in RegularizedFactor.solve_all
    h = np.ldexp(problem.rhs, -exponent)[:, None]
    tol = problem.tols.singular_tol
    singular = [_numerical_rank(s, tol) < s.size for s in np.linalg.svd(t, compute_uv=False)]
    regular = [i for i, flag in enumerate(singular) if not flag]
    solved = iter(())
    if regular:
        t_regular = t[regular]
        z = np.linalg.solve(t_regular, h)
        z = z + np.linalg.solve(t_regular, h - t_regular @ z)
        solved = iter(_solutions(alpha[regular], np.ldexp(z, exponent), problem))
    return [
        _singular_report(alpha[i, 0, 0], t[i], problem) if flag else next(solved)
        for i, flag in enumerate(singular)
    ]


def _singular_report(alpha: float, t: np.ndarray, problem: ProblemInstance) -> SingularSystem:
    _u, s, vt = np.linalg.svd(t)
    null_basis = vt[_numerical_rank(s, problem.tols.singular_tol):].T
    kernel = _kernel_vector(null_basis, vt[-1], problem)
    return SingularSystem(alpha=float(alpha), kernel_vector=kernel, smallest_eigenvalue=float(s[-1]))


def identity_residuals(solution: RegularizedSolution, problem: ProblemInstance) -> IdentityReport:
    """Recompute the three solve identities from scratch and report defects."""
    if not isinstance(solution, RegularizedSolution):
        raise ValidationError("identity_residuals needs a nonsingular solution, not a singular report")
    z = solution.costate
    y = solution.indicator
    h = problem.rhs
    basic = _norm(problem._gram @ z - (h - solution.alpha * (z - problem.project(z))))
    error_form = _norm(solution.residual + (y - problem.project(y)))
    constraint = _norm(problem.project(solution.image - h))
    return IdentityReport(
        basic_identity_defect=basic,
        error_form_defect=error_form,
        constraint_defect=constraint,
    )
