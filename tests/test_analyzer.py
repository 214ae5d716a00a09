"""Sweeps, verdicts, witnesses, the range oracle, and factor invertibility."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from finapprox import (
    AlphaSchedule,
    RegularizedSolution,
    Tolerances,
    ValidationError,
    Verdict,
    alpha_sweep,
    build_scenario,
    decide,
    extract_witness,
    factor_invertibility,
    factor_regularized,
    make_problem,
    make_projector,
    range_oracle,
    regularized_operator,
    witness_correlation,
)
from finapprox.cli import main
from finapprox.problemfile import problem_from_dict
from helpers import (
    conditioned_operator,
    dense_range_oracle,
    random_decision_problem,
    random_orthonormal,
    random_well_posed_problem,
    record_linalg_calls,
)


def kkt_constrained_minimum(problem):
    """Independent constrained least-squares via the stationarity system.

    Minimizes ||L u - h|| subject to B^T L u = B^T h for a basis B of the
    constraint's range, by solving the first-order optimality system
    [[L^T L, C^T], [C, 0]] (u, lam) = (L^T h, d) with a minimum-norm
    least-squares solve. Entirely different elimination from the package's
    route in singular coordinates.
    """
    l = problem.operator
    c = problem.constraint.basis.T @ l
    d = problem.constraint.basis.T @ problem.rhs
    dim_u, n_c = l.shape[1], c.shape[0]
    kkt = np.zeros((dim_u + n_c, dim_u + n_c))
    kkt[:dim_u, :dim_u] = l.T @ l
    kkt[:dim_u, dim_u:] = c.T
    kkt[dim_u:, :dim_u] = c
    rhs = np.concatenate([l.T @ problem.rhs, d])
    solution, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    u = solution[:dim_u]
    return u, float(np.linalg.norm(l @ u - problem.rhs))


def test_schedule_validation_and_values():
    sched = AlphaSchedule()
    values = sched.values()
    assert len(values) == 8
    assert values[0] == 1.0
    assert all(b < a for a, b in zip(values, values[1:]))
    assert_allclose(values[-1], 1e-7, rtol=1e-12)
    with pytest.raises(ValidationError):
        AlphaSchedule(alpha0=0.0)
    with pytest.raises(ValidationError):
        AlphaSchedule(ratio=1.0)
    with pytest.raises(ValidationError):
        AlphaSchedule(count=0)


def test_schedule_smallest_alpha_keeps_its_square_normal():
    """The smallest alpha must be at least sqrt(tiny), about 1.49e-154: below it alpha**2
    is subnormal and the solve divides 0 by 0."""
    assert AlphaSchedule(count=154).values()[-1] > 1e-153 > np.sqrt(np.finfo(float).tiny)
    for schedule in (
        lambda: AlphaSchedule(count=155),
        lambda: AlphaSchedule(alpha0=1e-155, count=1),
        lambda: AlphaSchedule(ratio=0.5, count=10**400),  # beyond the float range
    ):
        with pytest.raises(ValidationError, match="alpha schedule underflows"):
            schedule()


def test_sweep_records_closed_form():
    problem = build_scenario("diagonal_unsolvable").problem
    report = alpha_sweep(problem)
    assert len(report.records) == 8
    assert report.rhs_norm == 1.0
    for record in report.records:
        assert not record.singular
        assert_allclose(record.norm_indicator, 1.0, rtol=1e-13)
        assert_allclose(record.norm_residual, 1.0, rtol=1e-13)
        assert record.norm_constraint_residual <= 1e-15


def test_sweep_jobs_deterministic():
    """Two sweeps give the same records, and the stacked solve of the schedule gives each
    alpha the indicator bytes of a solve of that alpha alone."""
    problem = build_scenario("function_space_galerkin", M=32).problem
    first, second = alpha_sweep(problem), alpha_sweep(problem)
    factor = factor_regularized(problem)
    stacked = factor.solve_all(first.schedule.values())
    for a, b, solution in zip(first.records, second.records, stacked, strict=True):
        assert a == b
        assert solution.indicator.tobytes() == factor.solve(a.alpha).indicator.tobytes()


def test_decide_solvable():
    report = alpha_sweep(build_scenario("diagonal_solvable").problem)
    decision = decide(report)
    assert decision.verdict is Verdict.SOLVABLE
    assert decision.witness is None
    assert decision.diagnostics["kernel_rhs_norm"] <= 1e-6


def test_decide_not_solvable_with_witness():
    report = alpha_sweep(build_scenario("diagonal_unsolvable").problem)
    decision = decide(report)
    assert decision.verdict is Verdict.NOT_SOLVABLE
    assert_allclose(decision.witness, [0.0, 1.0], atol=1e-12)
    assert_allclose(decision.indicator_limit, [0.0, 1.0], atol=1e-12)
    assert decision.diagnostics["witness_norm"] > 0.99


def test_decide_singular():
    report = alpha_sweep(build_scenario("truncated_shift").problem)
    decision = decide(report)
    assert decision.verdict is Verdict.SINGULAR
    assert decision.diagnostics["nonsingular_count"] == 0.0


# L = [[4], [0]] under the raw R = [[-1, 1], [-1, 1]] with h = (2, 0) = L 1/2: N = e2 and
# N^T (I - R) N = 0, so the formula does not apply, though alpha T_alpha^{-1} h = (0, -2) at every
# alpha where T_alpha is nonsingular.
RAW_ZERO_BLOCK = {
    "dimH": 2, "dimU": 1, "L": [[4.0], [0.0]], "constraint": {"type": "raw", "data": [[-1.0, 1.0], [-1.0, 1.0]]},
    "h": [2.0, 0.0],
}


def test_decide_inconclusive_where_the_kernel_block_is_singular(capsys, tmp_path):
    """A singular N^T (I - P) N gives INCONCLUSIVE and no witness, though the indicator
    converges to a nonzero vector and h is reachable; the report then states no agreement.
    The schedule no longer steers the verdict: three slowly shrinking alphas decide too."""
    problem = problem_from_dict(RAW_ZERO_BLOCK)
    report = alpha_sweep(problem)
    solutions = factor_regularized(problem).solve_all(report.schedule.values())
    solved = [s for s in solutions if isinstance(s, RegularizedSolution)]  # det T_alpha = alpha^2
    assert solved
    for solution in solved:
        assert_allclose(solution.indicator, [0.0, -2.0], atol=1e-12)
    decision = decide(report)
    assert (decision.verdict, decision.witness, decision.indicator_limit) == (Verdict.INCONCLUSIVE, None, None)
    assert decision.diagnostics["kernel_rhs_norm"] == 0.0

    path = tmp_path / "problem.json"
    path.write_text(json.dumps(RAW_ZERO_BLOCK))
    assert main(["analyze", "--input", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["witness"], out["agreement"]) == ("INCONCLUSIVE", None, None)
    assert out["oracle"]["constrained_solvable"]
    assert main(["analyze", "--input", str(path)]) == 0
    notes = capsys.readouterr().out.splitlines()
    assert "# verdict=INCONCLUSIVE" in notes
    assert not [line for line in notes if line.startswith(("# witness=", "# agreement="))]

    short = alpha_sweep(build_scenario("diagonal_solvable").problem, AlphaSchedule(alpha0=1.0, ratio=0.7, count=3))
    assert decide(short).verdict is Verdict.SOLVABLE


def test_decide_tol_override(capsys, tmp_path):
    """decide reads decision_tol from the problem's Tolerances, the one place it is set, and
    analyze --tol-decision replaces it: ||N^T h|| / ||h|| is about 1e-8 here."""
    data = {
        "dimH": 2, "dimU": 1, "L": [[1.0], [0.0]], "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1e-8],
    }
    for tols, verdict in ((Tolerances(), Verdict.SOLVABLE), (Tolerances(decision_tol=1e-12), Verdict.NOT_SOLVABLE)):
        decision = decide(alpha_sweep(dataclasses.replace(problem_from_dict(data), tols=tols)))
        assert decision.verdict is verdict
        assert_allclose(decision.diagnostics["kernel_rhs_norm"], 1e-8, rtol=1e-12)
    assert_allclose(decision.witness, [0.0, 1e-8], rtol=1e-12)

    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    for argv, verdict in (((), "SOLVABLE"), (("--tol-decision", "1e-12"), "NOT_SOLVABLE")):
        assert main(["analyze", "--input", str(path), *argv]) == 0
        assert f"# verdict={verdict}" in capsys.readouterr().out.splitlines()
    with pytest.raises(ValidationError):
        Tolerances(decision_tol=0.0)


def test_decide_mixed_kernel_and_range():
    """Gram kernel meets the constraint range only at zero, rhs unreachable.

    Gram = diag(1, 0) with constraint on e1 and rhs (1, 1): the indicator
    converges to (0, 1), which the constraint does not touch, so the witness
    equals the limit itself.
    """
    proj = make_projector([np.eye(2)[:, 0]])
    problem = make_problem(
        operator=np.array([[1.0], [0.0]]), constraint=proj, rhs=np.array([1.0, 1.0])
    )
    report = alpha_sweep(problem)
    decision = decide(report)
    assert decision.verdict is Verdict.NOT_SOLVABLE
    assert_allclose(decision.witness, [0.0, 1.0], atol=1e-6)


def test_extract_witness_misuse():
    report = alpha_sweep(build_scenario("diagonal_solvable").problem)
    with pytest.raises(ValidationError, match="SOLVABLE"):
        extract_witness(report)


def test_witness_correlation_limit():
    """The residual correlates with the witness at the witness norm squared."""
    problem = build_scenario("diagonal_unsolvable").problem
    report = alpha_sweep(problem)
    witness = extract_witness(report)
    values = witness_correlation(problem, witness)
    assert len(values) == 8
    alphas, correlations = zip(*values)
    assert alphas == tuple(AlphaSchedule().values())
    for correlation in correlations:
        assert_allclose(correlation, -1.0, atol=1e-12)


def test_witness_correlation_skips_singular():
    problem = build_scenario("truncated_shift").problem
    values = witness_correlation(problem, np.zeros(6))
    assert values == []


@pytest.mark.parametrize(
    "witness, message",
    [([np.nan, 1.0], "non-finite"), ([0.0, 1.0, 0.0], "length 3"), ([[0.0, 1.0]], "one-dimensional")],
)
def test_witness_correlation_validates_witness(witness, message):
    """A witness of the wrong length or with non-finite entries is rejected, not correlated."""
    problem = build_scenario("diagonal_unsolvable").problem
    with pytest.raises(ValidationError, match=message):
        witness_correlation(problem, witness)


def test_oracle_closed_forms():
    solvable = range_oracle(build_scenario("diagonal_solvable").problem)
    assert solvable.constrained_solvable and solvable.decomposed_solvable
    assert solvable.agree and solvable.feasible
    assert solvable.distance <= 1e-12

    unsolvable = range_oracle(build_scenario("diagonal_unsolvable").problem)
    assert not unsolvable.constrained_solvable and not unsolvable.decomposed_solvable
    assert unsolvable.agree and unsolvable.feasible
    assert_allclose(unsolvable.distance, 1.0, rtol=1e-12)
    # the constructed control achieves the reported distance
    achieved = np.linalg.norm(
        build_scenario("diagonal_unsolvable").problem.operator @ unsolvable.control
        - build_scenario("diagonal_unsolvable").problem.rhs
    )
    assert_allclose(achieved, unsolvable.distance, rtol=1e-12)


def test_oracle_requires_operator():
    problem = build_scenario("rank_deficient_gamma").problem
    with pytest.raises(ValidationError, match="gram"):
        range_oracle(problem)


def test_oracle_reuses_validated_operator_norm(monkeypatch):
    """make_problem keeps ||L||_2 from its one SVD of L; the oracle decomposes nothing of L's size."""
    rng = np.random.default_rng(20261019)
    l = rng.standard_normal((7, 5))
    proj = make_projector(list(rng.standard_normal((2, 7))))
    problem = make_problem(operator=l, constraint=proj, rhs=rng.standard_normal(7))
    singular_values = problem.spectrum.singular_values
    assert problem.validation.operator_norm == singular_values[0]
    assert_allclose(singular_values, np.linalg.svd(l, compute_uv=False), rtol=1e-14)
    assert problem.constrained(proj).validation.operator_norm == problem.validation.operator_norm
    gram_only = build_scenario("rank_deficient_gamma").problem
    assert gram_only.validation.operator_norm is None

    expected = range_oracle(problem)
    calls = record_linalg_calls(monkeypatch)
    oracle = range_oracle(problem)
    assert calls, "the oracle's small factorizations go through the recorded entry points"
    assert not [c for c in calls if c[1] in (l.shape, (7, 7), (5, 5))]
    assert oracle.distance == expected.distance
    assert oracle.exact_part_residual == expected.exact_part_residual


def _oracle_reference_problems(seed, count):
    """Seeded problems, dimension 2 to 64, in six kinds taken in turn.

    Three eighths of them are the fifth kind, whose failures are rarest.
    Full rank; rank deficient with a reachable or an unreachable right-hand
    side; rank deficient with a projector that contains a unit vector of
    ker L^T; tall rank-2 operators on 3 to 5 controls whose projector is
    one unit vector of ker L^T, with a reachable right-hand side, where the
    constraint row is rounding noise that must not be inverted; and raw
    constraint matrices or the zero projector. Half the operators have
    condition numbers up to 1e6, and a quarter are scaled by a factor
    between 1e-4 and 1e2.
    """
    rng = np.random.default_rng(seed)
    for index in range(count):
        kind = (0, 1, 2, 3, 4, 4, 4, 5)[index % 8]
        ill = bool(rng.integers(0, 2))
        if kind == 0:
            dim = int(rng.integers(2, 49))
            operator = conditioned_operator(rng, dim, int(rng.integers(dim, 57)), dim, ill)
        elif kind == 4:
            operator = conditioned_operator(rng, int(rng.integers(24, 65)), int(rng.integers(3, 6)), 2, ill)
        else:
            dim_u = int(rng.integers(1, 49))
            dim = int(rng.integers(2, 49))
            rank = int(rng.integers(1, max(1, min(dim - 1, dim_u)) + 1))
            operator = conditioned_operator(rng, dim, dim_u, rank, ill)
        if rng.integers(0, 4) == 0:
            operator = operator * 10.0 ** rng.uniform(-4.0, 2.0)
        dim = operator.shape[0]
        kernel = scipy.linalg.null_space(operator.T, rcond=1e-10)
        rhs = operator @ rng.standard_normal(operator.shape[1])
        if kind == 2 or (kind == 3 and rng.integers(0, 2)):
            direction = kernel @ rng.standard_normal(kernel.shape[1])
            rhs = rhs + max(1.0, np.linalg.norm(rhs)) * direction / np.linalg.norm(direction)
        vectors = list(rng.standard_normal((int(rng.integers(1, 4)), dim)))
        if kind in (3, 4):
            extra = 0 if kind == 4 else int(rng.integers(0, 3))
            vectors = [kernel @ rng.standard_normal(kernel.shape[1])] + vectors[:extra]
        if kind != 5:
            constraint = make_projector(vectors)
        elif index % 16 == 15:
            constraint = make_projector([], dim=dim)
        else:
            constraint = rng.standard_normal((dim, 2)) @ rng.standard_normal((2, dim)) / dim
        yield make_problem(operator=operator, constraint=constraint, rhs=rhs / np.linalg.norm(rhs))


def test_oracle_matches_dense_reference():
    """The singular-coordinate oracle answers what the dense lstsq route answers.

    The reference (tests/helpers.py) factors the constraint rows and L
    itself; the oracle reads everything from the problem's one SVD. Both
    must agree on feasibility and both verdicts on every problem, including
    the tall kernel-constraint kind where the constraint rows carry only
    rounding noise just above a floor that ignores the ambient dimension.
    """
    checked = 0
    for problem in _oracle_reference_problems(20261024, 480):
        feasible, decomposed, constrained, _distance = dense_range_oracle(problem)
        oracle = range_oracle(problem)
        assert (oracle.feasible, oracle.decomposed_solvable, oracle.constrained_solvable) == (
            feasible,
            decomposed,
            constrained,
        ), f"problem {checked}"
        checked += 1
    assert checked == 480


def test_oracle_matches_kkt_route():
    """The nullspace oracle and a KKT solve reach the same minimum."""
    rng = np.random.default_rng(20260501)
    checked = 0
    for _ in range(60):
        problem, _ = random_decision_problem(rng)
        oracle = range_oracle(problem)
        assert oracle.feasible  # transversal instances are always feasible
        _u, kkt_distance = kkt_constrained_minimum(problem)
        assert_allclose(oracle.distance, kkt_distance, rtol=1e-8, atol=1e-10)
        checked += 1
    assert checked == 60


def test_oracle_constraint_is_respected():
    """Oracle controls satisfy the exact-matching constraint to rounding."""
    rng = np.random.default_rng(20260502)
    for _ in range(30):
        problem, _ = random_decision_problem(rng)
        oracle = range_oracle(problem)
        image = problem.operator @ oracle.control
        defect = problem.constraint_rows @ (image - problem.rhs)
        assert np.linalg.norm(defect) <= 1e-9 * np.linalg.norm(problem.rhs)


def test_verdict_matches_oracle_distance_and_witness():
    """For unreachable targets the witness norm equals the oracle distance."""
    rng = np.random.default_rng(20260503)
    tested = 0
    while tested < 25:
        problem, solvable = random_decision_problem(rng)
        if solvable:
            continue
        report = alpha_sweep(problem)
        decision = decide(report)
        if decision.verdict is not Verdict.NOT_SOLVABLE:
            continue
        oracle = range_oracle(problem)
        assert not oracle.constrained_solvable
        assert_allclose(
            np.linalg.norm(decision.witness), oracle.distance, rtol=1e-5
        )
        tested += 1


def test_factor_invertibility_closed_form():
    """Identity Gram with a rank-one constraint halves one singular value."""
    problem = build_scenario("diagonal_solvable").problem
    report = factor_invertibility(1.0, problem)
    assert report.invertible
    assert_allclose(report.smallest_singular_value, 0.5, rtol=1e-12)
    assert_allclose(report.largest_singular_value, 1.0, rtol=1e-12)


def test_factor_invertibility_matches_direct_svd():
    rng = np.random.default_rng(20260504)
    for _ in range(40):
        problem, _ = random_decision_problem(rng)
        for alpha in (1.0, 0.05):
            report = factor_invertibility(alpha, problem)
            t = regularized_operator(alpha, problem)
            s = np.linalg.svd(t, compute_uv=False)
            direct = s[-1] > problem.tols.singular_tol * s[0]
            assert report.invertible == direct


def test_factor_invertibility_detects_singularity():
    problem = build_scenario("truncated_shift").problem
    report = factor_invertibility(0.1, problem)
    assert not report.invertible


def _raw_constraint_problems(rng):
    """nilpotent_pi; dense L under a random raw R; and the singular raw family
    P = diag(0, .., 0, 1 - c) with G = diag(1, .., 1, 0)."""
    yield build_scenario("nilpotent_pi").problem
    for dim in range(1, 9):
        operator = rng.standard_normal((dim, int(rng.integers(1, dim + 2))))
        yield make_problem(operator=operator, constraint=rng.standard_normal((dim, dim)), rhs=rng.standard_normal(dim))
    for dim in (1, 3, 6):
        for c in (0.0, 1e-3, 1e-6, 1e-9):
            constraint = np.zeros((dim + 1, dim + 1))
            constraint[-1, -1] = 1.0 - c
            operator = np.diag(np.r_[rng.uniform(0.5, 2.0, dim), 0.0])
            yield make_problem(operator=operator, constraint=constraint, rhs=rng.standard_normal(dim + 1))


def test_factor_invertibility_on_raw_constraints_is_the_formula_bit_for_bit():
    """The report is the SVD of I - alpha (alpha I + G)^{-1} R as written, and its flag
    agrees with the SVD of T_alpha = (alpha I + G) times that factor wherever T_alpha's
    ratio sits clear of the threshold by more than the condition number of alpha I + G,
    the most by which the two ratios can differ."""
    rng = np.random.default_rng(20260505)
    compared = {True: 0, False: 0}
    for problem in _raw_constraint_problems(rng):
        n, tol = problem.ambient_dim, problem.tols.singular_tol
        lam = np.maximum(np.linalg.eigvalsh(problem.gram), 0.0)
        for alpha in (1.0, 0.05, 1e-8):
            factor = np.eye(n) - alpha * np.linalg.solve(alpha * np.eye(n) + problem.gram, problem.constraint_rows)
            s = np.linalg.svd(factor, compute_uv=False)
            report = factor_invertibility(alpha, problem)
            assert report.smallest_singular_value.hex() == float(s[-1]).hex()
            assert report.largest_singular_value.hex() == float(s[0]).hex()
            t = np.linalg.svd(regularized_operator(alpha, problem), compute_uv=False)
            margin = 10.0 * (alpha + lam[-1]) / (alpha + lam[0])
            if not tol / margin <= t[-1] / t[0] <= tol * margin:
                assert report.invertible == (t[-1] > tol * t[0])
                compared[report.invertible] += 1
    assert compared[True] >= 30 and compared[False] >= 9  # c = 0 at three sizes and three alphas


def _dense_constraint_problems(rng, count=40):
    """Seeded dense problems under projector, raw and zero-rank constraints."""
    for index in range(count):
        dim = int(rng.integers(2, 17))
        dim_u = int(rng.integers(1, 17))
        rank = int(rng.integers(1, min(dim, dim_u) + 1))
        u, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
        v, _ = np.linalg.qr(rng.standard_normal((dim_u, rank)))
        operator = u @ (rng.uniform(0.5, 1.5, rank)[:, None] * v.T)
        kind = index % 3
        if kind == 0:
            k = int(rng.integers(1, dim + 1))
            constraint = make_projector([rng.standard_normal(dim) for _ in range(k)])
        elif kind == 1:
            constraint = rng.standard_normal((dim, dim))
        else:
            constraint = make_projector([], dim=dim)
        yield make_problem(operator=operator, constraint=constraint, rhs=rng.standard_normal(dim))


def _dense_constraint_matrix(problem):
    """The constraint's n x n matrix: the raw rows, or Q Q^T from the rows Q^T."""
    rows = problem.constraint_rows
    return rows if problem.validation.constraint_supplied_raw else rows.T @ rows


def test_project_matches_dense_constraint_matrix():
    rng = np.random.default_rng(73)
    for problem in _dense_constraint_problems(rng):
        x = rng.standard_normal(problem.ambient_dim)
        dense = _dense_constraint_matrix(problem) @ x
        if problem.validation.constraint_supplied_raw:
            assert np.array_equal(problem.project(x), dense)
        else:
            assert np.linalg.norm(problem.project(x) - dense) <= 1e-14 * np.linalg.norm(x)


def test_oracle_exact_part_matches_dense_lstsq():
    """The constraint-row residual equals lstsq(P L, P h) with the former rank cutoff."""
    rng = np.random.default_rng(79)
    for problem in _dense_constraint_problems(rng):
        l, p, h = problem.operator, _dense_constraint_matrix(problem), problem.rhs
        scale = np.linalg.svd(l, compute_uv=False)[0]
        a = p @ l
        smax = np.linalg.svd(a, compute_uv=False)[0]
        floor = max(a.shape) * np.finfo(float).eps * scale
        if smax <= floor:
            dense = np.linalg.norm(p @ h)
        else:
            x, *_ = np.linalg.lstsq(a, p @ h, rcond=floor / smax)
            dense = np.linalg.norm(a @ x - p @ h)
        oracle = range_oracle(problem)
        h_norm = np.linalg.norm(h)
        assert abs(oracle.exact_part_residual - dense) <= 1e-12 * h_norm
        threshold = problem.tols.decision_tol * h_norm
        assert oracle.feasible == (dense <= threshold)
        assert oracle.decomposed_solvable == (
            dense <= threshold and oracle.complement_residual <= threshold
        )
