"""Shared random instance generators for the test suite.

Every generator takes an explicit ``numpy.random.Generator`` so each test
controls its own seed. The transversality guard keeps the constraint's range
at a uniformly positive angle to the Gram operator's kernel, which is the
regime where the regularized system is invertible at every alpha and the
sweep verdict is crisp rather than borderline.
"""

import math

import numpy as np
import scipy.linalg

from finapprox import Projector, make_problem, make_projector

TRANSVERSALITY_FLOOR = 0.05


def random_orthonormal(rng, dim, k):
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q[:, :k]


def random_operator(rng, dim, dim_u, rank):
    """Operator with prescribed rank and singular values in [0.5, 1.5]."""
    u = random_orthonormal(rng, dim, rank)
    v = random_orthonormal(rng, dim_u, rank)
    s = rng.uniform(0.5, 1.5, size=rank)
    return u @ (s[:, None] * v.T)


def rotate_problem(problem, r):
    """``problem`` with H rotated by the orthogonal ``r``.

    The operator becomes R L (a Gram-only G becomes R G R^T), a projector
    basis R Q, a raw constraint R P R^T, and the right-hand side R h. A
    monomial L or a diagonal G rotated by a dense R is dense.
    """
    if isinstance(problem.constraint, Projector):
        constraint = make_projector(list((r @ problem.constraint.basis).T), dim=problem.ambient_dim)
    else:
        constraint = r @ problem.constraint @ r.T
    if problem.operator is None:
        return make_problem(
            gram_matrix=r @ problem.gram @ r.T,
            constraint=constraint,
            rhs=r @ problem.rhs,
            control_dim=problem.control_dim,
            tols=problem.tols,
        )
    return make_problem(operator=r @ problem.operator, constraint=constraint, rhs=r @ problem.rhs, tols=problem.tols)


def conditioned_operator(rng, dim, dim_u, rank, ill):
    """Rank-``rank`` operator; ill-conditioned draws reach condition numbers up to 1e6."""
    if ill:
        condition = 10.0 ** rng.uniform(0.0, 6.0)
        values = 10.0 ** rng.uniform(-np.log10(condition), 0.0, size=rank)
        values[0] = 1.0
        if rank > 1:
            values[1] = 1.0 / condition
    else:
        values = rng.uniform(0.5, 1.5, size=rank)
    left, right = random_orthonormal(rng, dim, rank), random_orthonormal(rng, dim_u, rank)
    return left @ (values[:, None] * right.T)


def transversal_projector(rng, operator, max_rank=3, floor=TRANSVERSALITY_FLOOR):
    """Random projector whose range meets the Gram kernel only at zero.

    Keeps the smallest eigenvalue of B^T (L L^T) B at least ``floor`` for an
    orthonormal basis B of the range, resampling as needed. Possible only
    when the requested rank does not exceed the operator's rank. Gaussian
    directions are tried 200 times; after that they are drawn from the
    operator's range, where an ill-conditioned L meets the floor sooner.
    """
    dim = operator.shape[0]
    gram_matrix = operator @ operator.T
    operator_rank = int(np.linalg.matrix_rank(operator, tol=1e-10))
    top = min(max_rank, operator_rank)
    for attempt in range(400):
        rank = int(rng.integers(1, top + 1))
        if attempt < 200:
            proj = make_projector([rng.standard_normal(dim) for _ in range(rank)])
        else:
            proj = make_projector(list((operator @ rng.standard_normal((operator.shape[1], rank))).T))
        pinched = proj.basis.T @ gram_matrix @ proj.basis
        if np.linalg.eigvalsh(pinched)[0] >= floor:
            return proj
    raise AssertionError("failed to draw a transversal projector in 400 attempts")


def reachable_rhs(rng, operator):
    """Right-hand side inside the operator's range, with unit-scale norm."""
    for _ in range(100):
        h = operator @ rng.standard_normal(operator.shape[1])
        if np.linalg.norm(h) >= 0.3:
            return h
    raise AssertionError("failed to draw a well-scaled reachable rhs")


def unreachable_rhs(rng, operator):
    """Right-hand side with a substantial component outside the range."""
    kernel = scipy.linalg.null_space(operator.T)
    if kernel.shape[1] == 0:
        raise AssertionError("operator has full row rank, nothing is unreachable")
    direction = kernel @ rng.standard_normal(kernel.shape[1])
    direction = direction / np.linalg.norm(direction)
    base = operator @ rng.standard_normal(operator.shape[1])
    return base + rng.uniform(0.3, 1.0) * max(1.0, np.linalg.norm(base)) * direction


def _full_rank_draw(rng, dim, max_dim):
    dim_u = int(rng.integers(dim, max_dim + 1))
    operator = random_operator(rng, dim, dim_u, dim)
    h = rng.standard_normal(dim)
    while np.linalg.norm(h) < 0.3:
        h = rng.standard_normal(dim)
    return operator, h


def _deficient_draw(rng, dim, max_dim):
    dim_u = int(rng.integers(1, max_dim + 1))
    top = max(1, min(dim - 1, dim_u))
    rank = int(rng.integers(1, top + 1))
    return random_operator(rng, dim, dim_u, rank)


def random_well_posed_problem(rng, max_dim=8):
    """Instance whose costate stays bounded along the whole schedule.

    Either the Gram operator has full rank (any rhs works) or it is rank
    deficient with a reachable rhs; both keep the solve well conditioned all
    the way down to the smallest alpha, so identity defects sit at rounding
    level rather than being amplified by 1/alpha.
    """
    dim = int(rng.integers(2, max_dim + 1))
    if bool(rng.integers(0, 2)):
        operator, h = _full_rank_draw(rng, dim, max_dim)
    else:
        operator = _deficient_draw(rng, dim, max_dim)
        h = reachable_rhs(rng, operator)
    proj = transversal_projector(rng, operator)
    return make_problem(operator=operator, constraint=proj, rhs=h)


def random_decision_problem(rng, max_dim=8):
    """Instance for verdict comparisons; returns (problem, expected_solvable).

    Mixes full-rank Gram operators (always solvable) with rank-deficient
    ones carrying reachable or unreachable right-hand sides.
    """
    dim = int(rng.integers(2, max_dim + 1))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        operator, h = _full_rank_draw(rng, dim, max_dim)
        solvable = True
    else:
        operator = _deficient_draw(rng, dim, max_dim)
        if kind == 1:
            h = reachable_rhs(rng, operator)
            solvable = True
        else:
            h = unreachable_rhs(rng, operator)
            solvable = False
    proj = transversal_projector(rng, operator)
    problem = make_problem(operator=operator, constraint=proj, rhs=h)
    return problem, solvable


def random_strictly_positive_problem(rng, max_dim=8):
    """Instance whose Gram operator is strictly positive.

    Square full-rank operator with singular values in [0.5, 1.5], so the
    smallest Gram eigenvalue is at least 0.25.
    """
    dim = int(rng.integers(2, max_dim + 1))
    operator = random_operator(rng, dim, dim, dim)
    proj = transversal_projector(rng, operator)
    h = rng.standard_normal(dim)
    return make_problem(operator=operator, constraint=proj, rhs=h)


def _noise_floor(a, scale):
    return max(a.shape) * np.finfo(float).eps * scale


def _lstsq_residual(a, b, scale=None, smax=None):
    """Minimum-norm least squares with a rank cutoff relative to ``scale``.

    Submatrices of a rank-deficient operator can consist entirely of rounding
    noise; the parent operator's scale anchors the cutoff at the noise floor.
    """
    if a.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    rcond = None
    if scale is not None and scale > 0 and min(a.shape) > 0:
        if smax is None:
            smax = float(np.linalg.svd(a, compute_uv=False)[0])
        floor = _noise_floor(a, scale)
        if smax <= floor:
            return np.zeros(a.shape[1]), float(np.linalg.norm(b))
        rcond = floor / smax
    x, *_ = np.linalg.lstsq(a, b, rcond=rcond)
    return x, float(np.linalg.norm(a @ x - b))


def _constraint_split(a, b, scale):
    """Particular solution, residual and nullspace of the constraint rows ``a x = b``.

    Singular values at or below ``max(a.shape) * eps * scale`` count as zero.
    """
    u, s, vt = scipy.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > _noise_floor(a, scale)))
    x = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    return x, float(np.linalg.norm(a @ x - b)), vt[rank:].T


def dense_range_oracle(problem):
    """Reference for ``range_oracle`` by dense least squares on L itself.

    The constraint rows ``rows @ L`` are split by one full SVD into a
    particular control, a residual and a nullspace; ``(I - P) h`` is tested
    by ``lstsq(L)``, and the constrained minimum over the nullspace by
    ``lstsq(L N)``. Returns ``(feasible, decomposed_solvable,
    constrained_solvable, distance)``.
    """
    l, h = problem.operator, problem.rhs
    threshold = problem.tols.decision_tol * float(np.linalg.norm(h))
    scale = float(np.linalg.svd(l, compute_uv=False)[0]) if min(l.shape) else 0.0
    rows = problem.constraint_rows
    a, b = rows @ l, rows @ h
    if a.shape[0] == 0:
        particular, exact, nullspace = np.zeros(l.shape[1]), 0.0, np.eye(l.shape[1])
    else:
        particular, exact, nullspace = _constraint_split(a, b, scale)
    feasible = exact <= threshold
    _w, complement = _lstsq_residual(l, h - problem.project(h), scale=scale, smax=scale)
    if not feasible:
        return False, False, False, math.inf
    t, _ = _lstsq_residual(l @ nullspace, h - l @ particular, scale=scale)
    distance = float(np.linalg.norm(l @ (particular + nullspace @ t) - h))
    return True, complement <= threshold, distance <= threshold, distance


_COUNTED = ("svd", "eigh", "eigvalsh", "solve", "lstsq", "qr", "cholesky", "inv")
_COUNTED_SCIPY = _COUNTED + ("cho_factor", "lu_factor")


def record_linalg_calls(monkeypatch):
    """List of ``(name, shape of the first argument)`` for every dense decomposition or solve."""
    calls = []
    for module, prefix, names in ((np.linalg, "numpy", _COUNTED), (scipy.linalg, "scipy", _COUNTED_SCIPY)):
        for name in names:
            real = getattr(module, name)

            def counted(a, *args, _real=real, _name=f"{prefix}.{name}", **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


POPULATION_KINDS = ("full_rank", "deficient_reachable", "deficient_unreachable", "singular", "raw_full_rank")


def population_problem(rng, kind, dim, ill=False, scale=1.0, gram_only=False):
    """One problem of ``kind`` in ``POPULATION_KINDS`` at ambient dimension ``dim``,
    with its expected verdict: ``(problem, verdict)``.

    Full rank, and rank deficient with a reachable right-hand side, are
    SOLVABLE; rank deficient with an unreachable one is NOT_SOLVABLE; a
    projector whose range holds a unit vector of the Gram kernel is SINGULAR
    at every alpha; a raw low-rank constraint on a full-rank operator is
    SOLVABLE. Projectors elsewhere meet the Gram kernel only at zero, with
    smallest eigenvalue of B^T G B at least 1e-3 (``ill``) or 0.05. The
    operator is ``conditioned_operator``'s times ``scale``; ``gram_only``
    hands in G alone.
    """
    full = kind in ("full_rank", "raw_full_rank")
    dim_u = int(rng.integers(dim, 65)) if full else int(rng.integers(1, 65))
    rank = dim if full else int(rng.integers(1, max(1, min(dim - 1, dim_u)) + 1))
    operator = conditioned_operator(rng, dim, dim_u, rank, ill)
    unreachable = kind == "deficient_unreachable" or (kind == "singular" and rng.integers(0, 2))
    rhs = unreachable_rhs(rng, operator) if unreachable else reachable_rhs(rng, operator)
    if kind == "raw_full_rank":
        k = int(rng.integers(1, 4))
        constraint = rng.standard_normal((dim, k)) @ rng.standard_normal((k, dim)) / dim
    elif kind == "singular":
        kernel = scipy.linalg.null_space(operator.T, rcond=1e-10)
        extra = rng.standard_normal((int(rng.integers(0, min(2, dim - 1) + 1)), dim))
        constraint = make_projector([kernel @ rng.standard_normal(kernel.shape[1]), *extra])
    else:
        constraint = transversal_projector(rng, operator, floor=1e-3 if ill else TRANSVERSALITY_FLOOR)
    operator = scale * operator
    if gram_only:
        problem = make_problem(gram_matrix=operator @ operator.T, constraint=constraint, rhs=rhs, control_dim=dim_u)
    else:
        problem = make_problem(operator=operator, constraint=constraint, rhs=rhs)
    verdict = {"deficient_unreachable": "NOT_SOLVABLE", "singular": "SINGULAR"}.get(kind, "SOLVABLE")
    return problem, verdict
