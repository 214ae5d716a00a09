"""Regularized solves: closed forms, identities, and singular systems."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from finapprox import (
    AlphaSchedule,
    RegularizedSolution,
    SingularSystem,
    ValidationError,
    alpha_sweep,
    build_scenario,
    factor_regularized,
    identity_residuals,
    make_problem,
    make_projector,
    regularized_operator,
    save_problem,
    solve_regularized,
)
from finapprox.analyzer import _record
from finapprox.cli import EXIT_SINGULAR, main


def random_projector_problem(rng, dim=None, full_rank=True):
    """Random operator problem with a projector constraint.

    With ``full_rank`` the Gram operator is strictly positive (singular
    values of L bounded away from zero), so the regularized system stays
    well conditioned along the whole schedule.
    """
    if dim is None:
        dim = int(rng.integers(2, 9))
    rank = int(rng.integers(1, dim))
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    s = rng.uniform(0.5, 1.5, size=dim)
    if not full_rank:
        s[rng.integers(1, dim)] = 0.0
    l = u @ np.diag(s) @ v.T
    proj = make_projector([rng.standard_normal(dim) for _ in range(rank)])
    h = rng.standard_normal(dim)
    return make_problem(operator=l, constraint=proj, rhs=h)


def test_regularized_operator_assembly():
    problem = build_scenario("diagonal_solvable").problem
    t = regularized_operator(0.5, problem)
    assert_allclose(t, np.diag([1.0, 1.5]), atol=0)
    # projector constraints give an exactly symmetric matrix
    assert np.array_equal(t, t.T)


def test_regularized_operator_rejects_bad_alpha():
    problem = build_scenario("diagonal_solvable").problem
    for alpha in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            regularized_operator(alpha, problem)


def test_diagonal_closed_form():
    """Identity operator, constraint on e1, rhs (1, 1).

    T_alpha = diag(1, 1 + alpha), so the costate is (1, 1/(1+alpha)), the
    constrained coordinate of the image matches the rhs exactly, and the
    residual lives on the free coordinate with norm alpha/(1+alpha).
    """
    problem = build_scenario("diagonal_solvable").problem
    for alpha in (1.0, 0.1, 1e-3, 1e-7):
        sol = solve_regularized(alpha, problem)
        assert isinstance(sol, RegularizedSolution)
        assert_allclose(sol.costate, [1.0, 1.0 / (1.0 + alpha)], rtol=1e-14)
        assert_allclose(sol.image, [1.0, 1.0 / (1.0 + alpha)], rtol=1e-14)
        assert_allclose(sol.control, sol.costate, rtol=1e-14)
        # residual comes from the cancellation image - h, so allow eps/alpha
        assert_allclose(np.linalg.norm(sol.residual), alpha / (1.0 + alpha), rtol=1e-8)
        assert_allclose(sol.constraint_residual, [0.0, 0.0], atol=1e-16)
        assert_allclose(sol.indicator, alpha * sol.costate, atol=0)
    sol = solve_regularized(1.0, problem)
    assert_allclose(sol.costate, [1.0, 0.5], atol=0)


def test_unsolvable_closed_form():
    """Rank-one operator, rhs outside its range: the indicator freezes at e2."""
    problem = build_scenario("diagonal_unsolvable").problem
    for alpha in (1.0, 0.01, 1e-6):
        sol = solve_regularized(alpha, problem)
        assert_allclose(sol.indicator, [0.0, 1.0], atol=1e-14)
        assert_allclose(sol.residual, [0.0, -1.0], atol=1e-14)


def test_nilpotent_constraint_closed_form():
    """Raw nilpotent constraint: solvable, but the constraint component persists.

    With L = I and P = [[0, 1], [0, 0]] the costate solves
    (alpha(I - P) + I) z = e2, giving z = (alpha/(1+alpha)^2, 1/(1+alpha)).
    The constraint component of the residual has norm alpha/(1+alpha), which
    is 1/11 at alpha = 0.1 even though the indicator itself vanishes.
    """
    problem = build_scenario("nilpotent_pi").problem
    alpha = 0.1
    sol = solve_regularized(alpha, problem)
    expected_z = np.array([alpha / (1.0 + alpha) ** 2, 1.0 / (1.0 + alpha)])
    assert_allclose(sol.costate, expected_z, rtol=1e-14)
    assert_allclose(np.linalg.norm(sol.constraint_residual), 1.0 / 11.0, rtol=1e-13)
    ids = identity_residuals(sol, problem)
    assert_allclose(ids.constraint_defect, 1.0 / 11.0, rtol=1e-13)
    # the error-form identity holds for any constraint map, projector or not
    assert ids.error_form_defect <= 1e-14


def test_zero_rhs_gives_zero_solution():
    """A zero right-hand side yields zero costate, image, and defects."""
    base = build_scenario("diagonal_solvable").problem
    problem = make_problem(
        operator=base.operator, constraint=base.constraint, rhs=np.zeros(2)
    )
    sol = solve_regularized(1.0, problem)
    assert isinstance(sol, RegularizedSolution)
    assert_allclose(sol.costate, [0.0, 0.0], atol=0)
    assert_allclose(sol.residual, [0.0, 0.0], atol=0)
    ids = identity_residuals(sol, problem)
    assert ids.basic_identity_defect == 0.0
    assert ids.error_form_defect == 0.0
    assert ids.constraint_defect == 0.0


def test_exact_constraint_random_instances():
    """pi(image - h) vanishes to rounding for projector constraints."""
    rng = np.random.default_rng(20260401)
    for _ in range(60):
        problem = random_projector_problem(rng)
        h_norm = np.linalg.norm(problem.rhs)
        for alpha in (1.0, 1e-3, 1e-7):
            sol = solve_regularized(alpha, problem)
            assert isinstance(sol, RegularizedSolution)
            assert np.linalg.norm(sol.constraint_residual) <= 1e-11 * h_norm


def test_identity_residuals_random_instances():
    rng = np.random.default_rng(20260402)
    for _ in range(40):
        problem = random_projector_problem(rng)
        h_norm = np.linalg.norm(problem.rhs)
        for alpha in (0.5, 1e-4):
            sol = solve_regularized(alpha, problem)
            ids = identity_residuals(sol, problem)
            assert ids.basic_identity_defect <= 1e-10 * h_norm
            assert ids.error_form_defect <= 1e-10 * h_norm
            assert ids.constraint_defect <= 1e-10 * h_norm


def test_image_matches_operator_route():
    """Gram route and operator route agree: G z equals L (L^T z)."""
    rng = np.random.default_rng(20260403)
    for _ in range(20):
        problem = random_projector_problem(rng)
        sol = solve_regularized(0.01, problem)
        assert_allclose(sol.image, problem.operator @ sol.control, atol=1e-12)


def test_residual_never_exceeds_indicator_for_projectors():
    """The residual is the complement component of the indicator."""
    rng = np.random.default_rng(20260404)
    for _ in range(30):
        problem = random_projector_problem(rng, full_rank=False)
        sol = solve_regularized(1e-2, problem)
        if isinstance(sol, SingularSystem):
            continue
        assert np.linalg.norm(sol.residual) <= np.linalg.norm(sol.indicator) * (1.0 + 1e-12)


def test_singular_system_truncated_shift():
    problem = build_scenario("truncated_shift").problem
    sol = solve_regularized(0.1, problem)
    assert isinstance(sol, SingularSystem)
    expected_kernel = np.zeros(6)
    expected_kernel[1] = 1.0
    assert_allclose(sol.kernel_vector, expected_kernel, atol=1e-12)
    assert abs(sol.smallest_eigenvalue) <= 1e-12
    # the kernel vector really annihilates the regularized matrix
    t = regularized_operator(0.1, problem)
    assert np.linalg.norm(t @ sol.kernel_vector) <= 1e-12
    with pytest.raises(ValidationError, match="needs a nonsingular solution"):
        identity_residuals(sol, problem)


def test_singular_kernel_without_rhs_component():
    """When the rhs has no kernel component, a unit kernel vector is still reported.

    Operator range e1, constraint range e2: T = diag(1 + alpha, 0) is
    singular with kernel e2, while the rhs e1 has no kernel part at all.
    """
    proj = make_projector([np.eye(2)[:, 1]])
    problem = make_problem(
        operator=np.array([[1.0], [0.0]]), constraint=proj, rhs=np.array([1.0, 0.0])
    )
    sol = solve_regularized(0.5, problem)
    assert isinstance(sol, SingularSystem)
    assert_allclose(np.linalg.norm(sol.kernel_vector), 1.0, rtol=1e-12)
    assert_allclose(abs(sol.kernel_vector[1]), 1.0, rtol=1e-12)
    assert abs(sol.smallest_eigenvalue) <= 1e-14


def test_singular_kernel_vector_is_scale_invariant():
    """Scaling the rhs leaves the reported kernel vector unchanged, down to tiny scales.

    truncated_shift's kernel is span{e2..eN}, so the kernel component of
    h = c (e2 + 0.3 e3) is h itself whatever c is.
    """
    base = build_scenario("truncated_shift", N=6).problem
    direction = np.zeros(6)
    direction[1], direction[2] = 1.0, 0.3
    expected = direction / np.linalg.norm(direction)
    assert_allclose(expected[1:3], [0.958, 0.287], atol=5e-4)
    for c in (1.0, 1e-6, 1e-13):
        problem = make_problem(operator=base.operator, constraint=base.constraint, rhs=c * direction)
        sol = solve_regularized(0.5, problem)
        assert isinstance(sol, SingularSystem)
        assert_allclose(sol.kernel_vector, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "operator, raw, rhs, kernel",
    [
        # not a projector: T = [[0, -alpha], [0, 1]], kernel e1
        ([[0.0], [1.0]], [[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0], [1.0, 0.0]),
        # a true projector given raw: T = diag(1 + alpha, 0), kernel e2
        ([[1.0], [0.0]], [[0.0, 0.0], [0.0, 1.0]], [0.0, 1.0], [0.0, 1.0]),
    ],
)
def test_raw_constraint_singular_report(tmp_path, capsys, operator, raw, rhs, kernel):
    """A raw constraint's singular alpha reports the kernel and a zero smallest value."""
    problem = make_problem(operator=np.array(operator), constraint=np.array(raw), rhs=np.array(rhs))
    sol = solve_regularized(0.5, problem)
    assert isinstance(sol, SingularSystem)
    assert_allclose(sol.kernel_vector, kernel, rtol=0, atol=1e-15)
    assert sol.smallest_eigenvalue == 0.0
    path = tmp_path / "raw.json"
    save_problem(problem, path)
    assert main(["sweep", "--input", str(path)]) == EXIT_SINGULAR
    assert capsys.readouterr().err == ""


def test_costate_refinement_tightens_solve():
    """The solve residual stays near rounding even at the smallest alpha."""
    rng = np.random.default_rng(20260405)
    for _ in range(20):
        problem = random_projector_problem(rng)
        t = regularized_operator(1e-7, problem)
        sol = solve_regularized(1e-7, problem)
        defect = np.linalg.norm(t @ sol.costate - problem.rhs)
        assert defect <= 1e-11 * np.linalg.norm(problem.rhs)


@st.composite
def sweep_problems(draw):
    """A problem of one of five kinds and a schedule for it.

    "projector": dense L, projector of any rank. "raw": dense L under a raw
    constraint that is no projector, solved by the generic path. "singular":
    a raw P = diag(0, .., 0, 1 - c) with G = diag(1, .., 1, 0), so T_alpha is
    singular at the alphas below about 1e-12 / c and nowhere else; with a
    projector onto that last coordinate instead, singular at every alpha.
    "gram_only": a dense G alone. "monomial": a scaled signed partial
    permutation L, whose spectrum is read off the entries. Any L may be
    given as a strided view.
    """
    kind = draw(st.sampled_from(["projector", "raw", "singular", "gram_only", "monomial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 7))
    if kind == "singular":
        l = np.diag(np.r_[rng.uniform(0.5, 2.0, dim), 0.0])
        if draw(st.booleans()):
            constraint = np.zeros((dim + 1, dim + 1))
            constraint[-1, -1] = 1.0 - draw(st.sampled_from([0.0, 1e-3, 1e-6, 1e-9]))
        else:
            constraint = make_projector([np.eye(dim + 1)[-1]])
    else:
        l = rng.standard_normal((dim, dim + draw(st.integers(-1, 2)) or 1))
        if kind == "monomial":
            l = np.zeros(l.shape)
            picked = rng.permutation(min(l.shape))[: draw(st.integers(0, min(l.shape)))]
            l[picked, rng.permutation(l.shape[1])[: picked.size]] = rng.uniform(-3.0, 3.0, picked.size)
        if kind == "raw":
            constraint = rng.standard_normal((dim, dim))
        else:
            rank = draw(st.integers(0, dim))
            constraint = make_projector(list(rng.standard_normal((rank, dim))), dim=dim)
    if draw(st.booleans()):  # the same entries, every other column of a wider array
        wide = np.zeros((l.shape[0], 2 * l.shape[1]))
        wide[:, ::2] = l
        l = wide[:, ::2]
    rhs = rng.standard_normal(l.shape[0])
    if kind == "gram_only":
        problem = make_problem(gram_matrix=l @ l.T, constraint=constraint, rhs=rhs, control_dim=l.shape[1])
    else:
        problem = make_problem(operator=l, constraint=constraint, rhs=rhs)
    schedule = AlphaSchedule(
        alpha0=draw(st.sampled_from([1e3, 1.0, 0.3])),
        ratio=draw(st.sampled_from([0.1, 0.5, 1e-2, 1e-3])),
        count=draw(st.integers(1, 12)),
    )
    return problem, schedule


def _bits(record):
    return (
        np.float64(record.alpha).tobytes(),
        record.singular,
        np.float64(record.norm_indicator).tobytes(),
        np.float64(record.norm_residual).tobytes(),
        np.float64(record.norm_constraint_residual).tobytes(),
    )


def _indicator_bits(solution):
    return None if isinstance(solution, SingularSystem) else solution.indicator.tobytes()


# raw P = diag(0, 0, 1 - 1e-6) with G = diag(1, 1, 0): singular from alpha = 1e-6 on
MIXED = make_problem(operator=np.diag([1.0, 1.0, 0.0]), constraint=np.diag([0.0, 0.0, 1.0 - 1e-6]), rhs=np.ones(3))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example((MIXED, AlphaSchedule(count=12)))
@given(sweep_problems())
def test_stacked_sweep_matches_single_alpha_solves_bit_for_bit(case):
    """Solving the schedule in stacked calls gives each alpha the bits of a solve of it alone."""
    problem, schedule = case
    report = alpha_sweep(problem, schedule)
    factor = factor_regularized(problem)
    alone = [factor.solve(alpha) for alpha in schedule.values()]
    assert [_bits(r) for r in report.records] == [_bits(_record(s)) for s in alone]
    stacked = factor.solve_all(schedule.values())
    assert [_indicator_bits(s) for s in stacked] == [_indicator_bits(s) for s in alone]


def _scaling_cases():
    rng = np.random.default_rng(20261020)
    l = rng.standard_normal((4, 4))
    # h = 2^-600 max: at 2^600 h the refinement residual T_alpha z is past the float range
    # unless the solve is for 2^-e h
    top = np.ldexp([float(np.finfo(float).max)], -600)
    return [
        pytest.param(np.eye(1), make_projector([], dim=1), top, id="top-zero-projector"),
        pytest.param(np.eye(1), np.zeros((1, 1)), top, id="top-raw"),
        pytest.param(l, make_projector(list(rng.standard_normal((2, 4)))), rng.standard_normal(4), id="projector"),
        pytest.param(l, rng.standard_normal((4, 4)), rng.standard_normal(4), id="raw"),
    ]


@pytest.mark.parametrize("operator,constraint,rhs", _scaling_cases())
def test_costates_scale_with_h_by_exactly_its_power_of_two(operator, constraint, rhs):
    """Both routes solve for 2^-e h and scale back by 2^e, so a power of two 2^k on h is
    2^k on every costate, bit for bit, at each scheduled alpha."""
    alphas = AlphaSchedule().values()

    def costates(k):
        problem = make_problem(operator=operator, constraint=constraint, rhs=np.ldexp(rhs, k))
        return [solution.costate for solution in factor_regularized(problem).solve_all(alphas)]

    base = costates(0)
    for k in (600, -600):
        assert [np.ldexp(z, k).tobytes() for z in base] == [z.tobytes() for z in costates(k)]


def test_capacitance_that_rounds_to_zero_is_refused(tmp_path, capsys):
    """L = 1e-50 I_5 with one constraint vector (1, ..., 1) at alpha = 4e111: every weight
    lam / (alpha (lam + alpha)) is one subnormal ulp, above 0, so the largest-weight rule
    passes; but each coordinate of B = U^T Q is 1/sqrt(5) < 1/2, so each product b w rounds
    to 0 and C_alpha is the zero matrix. That alpha exits 2; the default schedule solves."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "dimH": 5,
        "dimU": 5,
        "L": (1e-50 * np.eye(5)).tolist(),
        "constraint": {"type": "projector_basis", "data": [[1.0] * 5]},
        "h": [1.0] * 5,
    }))
    for command in ("sweep", "analyze"):
        assert main([command, "--alpha0", "4e111", "--count", "1", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha 4e+111 is out of range for this problem: C_alpha is singular\n"
    assert main(["sweep", "--input", str(path)]) == 0
