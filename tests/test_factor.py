"""The spectral factor of the regularized system.

The problem's one decomposition (the SVD of L, read as the eigenpairs of
the Gram operator) serves every alpha and every Galerkin level; these tests
hold the factor to a dense reference solve, to the alpha-independent
SINGULAR test, and to its factorization count.
"""

import numpy as np
import pytest

from finapprox import (
    AlphaSchedule,
    RegularizedSolution,
    SingularSystem,
    alpha_sweep,
    build_scenario,
    diagonal_steps,
    factor_regularized,
    galerkin_sweep,
    identity_residuals,
    make_problem,
    make_projector,
    range_oracle,
    regularized_operator,
)
from helpers import random_operator, random_orthonormal, reachable_rhs, record_linalg_calls

EPS = np.finfo(float).eps
ALPHAS = [10.0**-k for k in range(8)]
SCALES = (1e-4, 1.0, 1e2)


def constraint_meeting_range(rng, operator, rank):
    """Projector whose range sits at a positive angle to the Gram kernel."""
    dim = operator.shape[0]
    column_space = np.linalg.svd(operator, full_matrices=False)[0][:, :rank]
    k = int(rng.integers(1, max(1, rank // 2) + 1))
    mixed = column_space @ rng.standard_normal((rank, k)) + 0.3 * rng.standard_normal((dim, k))
    return make_projector(list(np.linalg.qr(mixed)[0].T))


def seeded_projector_problems(seed, count=24):
    """(operator, projector, rhs) triples, dimension 2 to 64.

    Odd draws have full rank and a random right-hand side; even draws are
    rank deficient with a reachable right-hand side, so the costate stays
    bounded along the whole schedule.
    """
    rng = np.random.default_rng(seed)
    for trial in range(count):
        dim = int(rng.integers(2, 65))
        full = bool(trial % 2)
        rank = dim if full else int(rng.integers(1, dim))
        operator = random_operator(rng, dim, int(rng.integers(rank, dim + 8)), rank)
        rhs = rng.standard_normal(dim) if full else reachable_rhs(rng, operator)
        yield operator, constraint_meeting_range(rng, operator, rank), rhs


def test_factor_matches_dense_reference():
    """Indicators match a dense LU solve; identity defects stay backward-stable.

    Two backward-stable solves of T_alpha z = h can differ by about
    eps * cond(T_alpha) relative, which on rank-deficient problems scaled by
    1e2 at alpha = 1e-7 (cond near 1e13) is far above 1e-8 whichever solve is
    used, so the agreement bound is max(1e-8, 16 eps cond). The identity
    defects are backward errors and are bounded by id_tol ||T_alpha|| ||z||.
    At unit scale both bounds must hold in their plain form: 1e-8 relative
    agreement and id_tol ||h||.
    """
    checked = 0
    for operator, projector, rhs in seeded_projector_problems(20261017):
        for scale in SCALES:
            problem = make_problem(operator=scale * operator, constraint=projector, rhs=rhs)
            factor = factor_regularized(problem)
            id_tol = problem.tols.id_tol
            h_norm = np.linalg.norm(rhs)
            for alpha in ALPHAS:
                solution = factor.solve(alpha)
                assert isinstance(solution, RegularizedSolution)
                t = regularized_operator(alpha, problem)
                reference = alpha * np.linalg.solve(t, rhs)
                agreement = np.linalg.norm(solution.indicator - reference) / np.linalg.norm(reference)
                defects = identity_residuals(solution, problem)
                worst = max(
                    defects.basic_identity_defect,
                    defects.error_form_defect,
                    defects.constraint_defect,
                )
                assert agreement <= max(1e-8, 16 * EPS * np.linalg.cond(t))
                assert worst <= id_tol * np.linalg.norm(t, 2) * np.linalg.norm(solution.costate)
                if scale == 1.0:
                    assert agreement <= 1e-8
                    assert worst <= id_tol * h_norm
                checked += 1
    assert checked == 24 * len(SCALES) * len(ALPHAS)


def test_zero_projector_factor_is_shifted_gram():
    """Rank zero: T_alpha = G + alpha I, never singular."""
    rng = np.random.default_rng(4)
    operator = random_operator(rng, 5, 3, 2)
    problem = make_problem(
        operator=operator, constraint=make_projector([], dim=5), rhs=rng.standard_normal(5)
    )
    factor = factor_regularized(problem)
    assert factor.kernel_vector is None
    for alpha in (1.0, 1e-6):
        expected = np.linalg.solve(problem.gram + alpha * np.eye(5), problem.rhs)
        np.testing.assert_allclose(factor.solve(alpha).costate, expected, rtol=1e-10)


@pytest.mark.parametrize("scale", SCALES)
def test_singular_exactly_when_pinched_gram_is_singular(scale):
    """SINGULAR at every alpha exactly when G_QQ = Q^T G Q is singular.

    A constraint basis that takes one direction from the Gram kernel makes
    G_QQ singular; the same basis with that direction swapped for one of
    the operator's range keeps it nonsingular.
    """
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(3, 33))
        rank = int(rng.integers(1, dim))
        operator = scale * random_operator(rng, dim, rank + 2, rank)
        left = np.linalg.svd(operator)[0]
        range_part, kernel_part = left[:, :rank], left[:, rank:]
        mixed = range_part @ random_orthonormal(rng, rank, 1)[:, 0]
        kernel_direction = kernel_part @ random_orthonormal(rng, dim - rank, 1)[:, 0]
        rhs = rng.standard_normal(dim)
        for singular, vectors in ((True, [mixed, kernel_direction]), (False, [mixed])):
            problem = make_problem(operator=operator, constraint=make_projector(vectors), rhs=rhs)
            basis = problem.constraint.basis
            pinched = np.linalg.eigvalsh(basis.T @ problem.gram @ basis)
            factor = factor_regularized(problem)
            for alpha in (1.0, 1e-2, 1e-4, 1e-7):
                solution = factor.solve(alpha)
                assert isinstance(solution, SingularSystem) is singular
                if not singular:
                    continue
                kernel = solution.kernel_vector
                t = regularized_operator(alpha, problem)
                assert abs(np.linalg.norm(kernel) - 1.0) <= 1e-12
                assert np.linalg.norm(t @ kernel) <= 1e-12 * np.linalg.norm(t, 2)
                assert solution.alpha == alpha
                assert abs(solution.smallest_eigenvalue - pinched[0]) <= 1e-12 * np.linalg.norm(
                    problem.gram, 2
                )


@pytest.fixture
def linalg_calls(monkeypatch):
    return record_linalg_calls(monkeypatch)


def _square_calls(calls, n):
    return [c for c in calls if c[1] == (n, n)]


def _capacitance_solves(k, records):
    """Two k x k solves per nonsingular alpha: the solve and its refinement step."""
    nonsingular = sum(not r.singular for r in records)
    return [("numpy.solve", (k, k))] * (2 * nonsingular) if k else []


def test_alpha_sweep_factors_once(linalg_calls):
    """Building the problem and an 8-alpha sweep take one n x n decomposition: the SVD of L.

    Each alpha adds only its k x k capacitance solves; no factorization of
    any other kind or size runs.
    """
    problem = build_scenario("function_space_galerkin", M=64, operator="damping").problem
    n, k = problem.ambient_dim, problem.constraint.rank
    assert 0 < k < n
    report = alpha_sweep(problem, AlphaSchedule(count=8))
    assert len(report.records) == 8
    assert _square_calls(linalg_calls, n) == [("numpy.svd", (n, n))]
    expected = _capacitance_solves(k, report.records)
    assert expected
    assert [c for c in linalg_calls if c[0] not in ("numpy.svd", "numpy.eigh")] == expected
    before = len(linalg_calls)
    range_oracle(problem)
    assert _square_calls(linalg_calls[before:], n) == []


def test_galerkin_sweep_factors_once(linalg_calls):
    """Building the problem and an 8-level Galerkin sweep take one n x n decomposition: the SVD of L.

    Each level adds only its k_n x k_n capacitance solves.
    """
    scenario = build_scenario("function_space_galerkin", M=64, operator="damping")
    problem = scenario.problem
    n = problem.ambient_dim
    report = galerkin_sweep(problem, scenario.family, diagonal_steps(8, max_n=scenario.family.max_n))
    assert len(report.records) == 8
    calls = list(linalg_calls)
    assert _square_calls(calls, n) == [("numpy.svd", (n, n))]
    expected = []
    for record in report.records:
        expected += _capacitance_solves(scenario.family.sizes[record.n - 1], [record])
    assert expected
    assert [c for c in calls if c[0] not in ("numpy.svd", "numpy.eigh")] == expected
