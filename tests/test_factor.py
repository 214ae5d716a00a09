"""The spectral factor of the regularized system.

The problem's one decomposition (the SVD of L, read as the eigenpairs of
the Gram operator) serves every alpha, and one eigh of the Gram operator
serves every Galerkin level; a monomial L or a diagonal G is decomposed
from its entries, with no LAPACK call; these tests hold the factor to a dense
reference solve, to the alpha-independent SINGULAR test, and to its
factorization count.
"""

import numpy as np
import pytest

from finapprox import (
    DEFAULT_TOLERANCES,
    AlphaSchedule,
    RegularizedSolution,
    SingularSystem,
    SubspaceFamily,
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
from helpers import random_operator, random_orthonormal, reachable_rhs, record_linalg_calls, rotate_problem

EPS = np.finfo(float).eps
ALPHAS = [10.0**-k for k in range(8)]
SCALES = (1e-4, 1.0, 1e2)
ID_TOL = 1e-9  # the relative bound on the solve identities


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
    defects are backward errors and are bounded by ID_TOL ||T_alpha|| ||z||.
    At unit scale both bounds must hold in their plain form: 1e-8 relative
    agreement and ID_TOL ||h||.
    """
    checked = 0
    for operator, projector, rhs in seeded_projector_problems(20261017):
        for scale in SCALES:
            problem = make_problem(operator=scale * operator, constraint=projector, rhs=rhs)
            factor = factor_regularized(problem)
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
                assert worst <= ID_TOL * np.linalg.norm(t, 2) * np.linalg.norm(solution.costate)
                if scale == 1.0:
                    assert agreement <= 1e-8
                    assert worst <= ID_TOL * h_norm
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


def _eigh_rule(factor):
    """SINGULAR decision, smallest eigenvalue and kernel vector as eigh(G_QQ) alone
    gives them: nullity is the count of eigenvalues at or below singular_tol
    lam_max, and the kernel vector is the normalized component of h in
    Q ker G_QQ when it exceeds decision_tol ||h||, else Q times the first eigenvector."""
    problem, b, lam = factor.problem, factor.basis_coords, factor.eigenvalues
    mu, v = np.linalg.eigh((b.T * lam) @ b)
    nullity = int(np.sum(mu <= problem.tols.singular_tol * np.max(lam)))
    kernel = None
    if nullity:
        q, h = problem.constraint.basis, problem.rhs
        null_basis = q @ v[:, :nullity]
        component = null_basis @ (null_basis.T @ h)
        norm = np.linalg.norm(component)
        kernel = component / norm if norm > problem.tols.decision_tol * np.linalg.norm(h) else q @ v[:, 0]
    return float(mu[0]), kernel


THRESHOLD = DEFAULT_TOLERANCES.singular_tol  # singular_tol * lam_max, with lam_max = 1 below
MARGIN = 4 * 3 * EPS  # 4 k eps lam_max at the rank k = 3 below


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
@pytest.mark.parametrize(
    "pinched_min, fast",
    [
        pytest.param(0.5 * THRESHOLD, False, id="half"),
        pytest.param(np.nextafter(THRESHOLD, 0.0), False, id="ulp-below"),
        pytest.param(THRESHOLD, False, id="at"),
        pytest.param(np.nextafter(THRESHOLD, 1.0), False, id="ulp-above"),
        pytest.param(THRESHOLD + 0.5 * MARGIN, False, id="inside-margin"),
        pytest.param(1.5 * THRESHOLD, True, id="one-and-a-half"),
    ],
)
def test_singular_test_at_the_threshold_is_eighs(linalg_calls, pinched_min, fast, rotated):
    """Around singular_tol lam_max the factor decides SINGULAR, and gives the
    smallest eigenvalue and kernel vector, exactly as eigh(G_QQ) alone does.

    G = diag(1, 1/4, t, 1/2, 1/8, 3/4) and Q = (e_0, e_2, e_3) make
    G_QQ = diag(1, t, 1/2) with lam_max(G) = 1, so t sits at the threshold to
    the ulp; rotated, G_QQ is dense and t holds to rounding. Only t clear of
    the margin skips eigh, and then the eigenvalues-only routine's smallest
    eigenvalue is eigh's to within the margin (exactly, for the diagonal).
    Both right-hand sides are tried: one with a component along e_2, one
    with none in range(Q), which takes the eigenvector fallback.
    """
    gram = np.diag([1.0, 0.25, pinched_min, 0.5, 0.125, 0.75])
    projector = make_projector([np.eye(6)[0], np.eye(6)[2], np.eye(6)[3]])
    r = random_orthonormal(np.random.default_rng(6), 6, 6)
    for rhs in (np.eye(6)[1] + np.eye(6)[2], np.eye(6)[1] + np.eye(6)[4]):
        problem = make_problem(gram_matrix=gram, constraint=projector, rhs=rhs, control_dim=6)
        if rotated:
            problem = rotate_problem(problem, r)
        linalg_calls.clear()
        factor = factor_regularized(problem)
        assert (("numpy.eigh", (3, 3)) not in linalg_calls) is fast
        smallest, kernel = _eigh_rule(factor)
        if kernel is None:
            assert factor.kernel_vector is None
            assert abs(factor.smallest_eigenvalue - smallest) <= MARGIN
            assert factor.smallest_eigenvalue == smallest or (fast and rotated)
        else:
            assert factor.kernel_vector.tobytes() == kernel.tobytes()
            assert factor.smallest_eigenvalue == smallest
        assert isinstance(factor.solve(1e-3), SingularSystem) is (kernel is not None)


def _square_calls(calls, n):
    return [c for c in calls if c[1] == (n, n)]


def _capacitance_solves(k, records):
    """Two stacked solves with the k x k capacitance matrices of every nonsingular alpha
    solved together: the solve and its refinement step."""
    nonsingular = sum(not r.singular for r in records)
    return [("numpy.solve", (nonsingular, k, k))] * 2 if k and nonsingular else []


def _monomial_and_rotated():
    """``function_space_galerkin`` at M=64 with the damping diagonal, and a seeded
    orthogonal R that makes it dense under :func:`rotate_problem`."""
    scenario = build_scenario("function_space_galerkin", M=64, operator="damping")
    return scenario, random_orthonormal(np.random.default_rng(64), 64, 64)


def test_alpha_sweep_factors_once(linalg_calls):
    """Building the problem and an 8-alpha sweep take one n x n decomposition, the
    SVD of L, when L is dense, and none when L is monomial.

    The dense problem is the monomial scenario with H rotated. The factor's
    SINGULAR test takes the eigenvalues of the k x k G_QQ, with no eigenvectors
    on this nonsingular problem, and the alphas add only their k x k
    capacitance solves, stacked; no factorization of any other kind or size runs.
    """
    scenario, r = _monomial_and_rotated()
    monomial = scenario.problem
    n, k = monomial.ambient_dim, monomial.constraint.rank
    assert 0 < k < n
    for rotated, decompositions in ((True, [("numpy.svd", (n, n))]), (False, [])):
        linalg_calls.clear()
        if rotated:
            problem = rotate_problem(monomial, r)
        else:
            problem = build_scenario("function_space_galerkin", M=64, operator="damping").problem
        report = alpha_sweep(problem, AlphaSchedule(count=8))
        assert len(report.records) == 8
        assert _square_calls(linalg_calls, n) == decompositions
        assert not any(record.singular for record in report.records)
        expected = [("numpy.eigvalsh", (k, k))] + _capacitance_solves(k, report.records)
        assert [c for c in linalg_calls if c[0] != "numpy.svd"] == expected
        before = len(linalg_calls)
        range_oracle(problem)
        assert _square_calls(linalg_calls[before:], n) == []


def test_galerkin_sweep_factors_once(linalg_calls):
    """Building the problem and an 8-level Galerkin sweep take one n x n decomposition,
    eigh(G), when G is dense, and none when G is diagonal.

    The dense problem is the monomial scenario with H rotated, and so is its
    family. The levels read G alone, so the operator's SVD never runs. Each
    level adds only the eigenvalues of its k_n x k_n G_QQ, with no
    eigenvectors on these nonsingular levels, and its k_n x k_n capacitance
    solves.
    """
    scenario, r = _monomial_and_rotated()
    n = scenario.problem.ambient_dim
    rotated_family = SubspaceFamily(r @ scenario.family.basis, scenario.family.sizes, "rotated sine")
    steps = diagonal_steps(8, max_n=scenario.family.max_n)
    for rotated, decompositions in ((True, [("numpy.eigh", (n, n))]), (False, [])):
        linalg_calls.clear()
        if rotated:
            problem, family = rotate_problem(scenario.problem, r), rotated_family
        else:
            built = build_scenario("function_space_galerkin", M=64, operator="damping")
            problem, family = built.problem, built.family
        report = galerkin_sweep(problem, family, steps)
        assert len(report.records) == 8
        calls = list(linalg_calls)
        assert _square_calls(calls, n) == decompositions
        assert not [c for c in calls if c[0] == "numpy.svd"]
        assert not any(record.singular for record in report.records)
        expected = []
        for record in report.records:
            k = family.sizes[record.n - 1]
            expected += [("numpy.eigvalsh", (k, k))] + _capacitance_solves(k, [record])
        assert [c for c in calls if c[1] != (n, n)] == expected
