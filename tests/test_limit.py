"""The verdict from the closed-form alpha -> 0 limit of the indicator.

``decide`` reads y0 = N (N^T (I - P) N)^{-1} N^T h off the problem's
spectrum, N an orthonormal basis of ker G. These tests hold it to the
paper's definition (the indicator at the smallest alpha is y0 to O(alpha)),
to invariance under units and changes of basis, and to the ground truth of a
seeded population.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from finapprox import AlphaSchedule, Verdict, alpha_sweep, build_scenario, decide, factor_regularized, make_problem
from helpers import POPULATION_KINDS, population_problem, random_orthonormal, rotate_problem


def _decision(problem):
    return decide(alpha_sweep(problem))


def _unit(v):
    return v / np.linalg.norm(v)


def _scaled(problem, c):
    """``problem`` with L replaced by c L (G by c^2 G)."""
    if problem.operator is None:
        return make_problem(
            gram_matrix=c * c * problem.gram, constraint=problem.constraint, rhs=problem.rhs,
            control_dim=problem.control_dim,
        )
    return make_problem(operator=c * problem.operator, constraint=problem.constraint, rhs=problem.rhs)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(POPULATION_KINDS),
    dim=st.integers(2, 12),
    ill=st.booleans(),
    gram_only=st.booleans(),
    exponent=st.floats(-6.0, 6.0),
    rhs_exponent=st.floats(-6.0, 6.0),
)
def test_verdict_and_witness_direction_do_not_depend_on_units_or_basis(
    seed, kind, dim, ill, gram_only, exponent, rhs_exponent
):
    """L -> c L for c in [1e-6, 1e6], h -> c h, and orthogonal changes of basis of H and
    of U leave the verdict and the normalized witness (rotated along with H) as they are."""
    rng = np.random.default_rng(seed)
    problem, _ = population_problem(rng, kind, dim, ill=ill, gram_only=gram_only)
    base = _decision(problem)
    rotation = random_orthonormal(rng, dim, dim)
    variants = [
        (_scaled(problem, 10.0**exponent), np.eye(dim)),
        (replace(problem, rhs=10.0**rhs_exponent * problem.rhs), np.eye(dim)),
        (rotate_problem(problem, rotation), rotation),
    ]
    if problem.operator is not None:
        turn = random_orthonormal(rng, problem.control_dim, problem.control_dim)
        turned = make_problem(operator=problem.operator @ turn, constraint=problem.constraint, rhs=problem.rhs)
        variants.append((turned, np.eye(dim)))
    for variant, basis in variants:
        decision = _decision(variant)
        assert decision.verdict is base.verdict
        if base.verdict is Verdict.NOT_SOLVABLE:
            assert_allclose(_unit(decision.witness), basis @ _unit(base.witness), atol=1e-6)


def test_seeded_population_has_no_wrong_or_inconclusive_verdict():
    """126 problems, every dimension from 2 to 64 twice, the five kinds in turn, half with
    condition numbers up to 1e6, half scaled by 1e-4 to 1e2, a tenth Gram-only."""
    rng = np.random.default_rng(20261020)
    mistakes = []
    for index, dim in enumerate([*range(2, 65), *range(2, 65)]):
        kind = POPULATION_KINDS[index % len(POPULATION_KINDS)]
        scale = 10.0 ** rng.uniform(-4.0, 2.0) if rng.integers(0, 2) else 1.0
        gram_only = bool(rng.integers(0, 10) == 0)
        problem, expected = population_problem(rng, kind, dim, ill=bool(index % 2), scale=scale, gram_only=gram_only)
        verdict = _decision(problem).verdict.value
        if verdict != expected:
            mistakes.append((index, kind, dim, verdict, expected))
    assert mistakes == []


def _unreachable_batch():
    rng = np.random.default_rng(20261021)
    for dim in range(2, 65, 3):
        yield population_problem(rng, "deficient_unreachable", dim)[0]


def test_limit_is_the_indicator_at_the_smallest_alpha():
    """The paper's indicator alpha T_alpha^{-1} h at alpha = 1e-7, from the factor's solve,
    lies within 1e-5 ||h|| of y0 on NOT_SOLVABLE problems with a well-conditioned G."""
    smallest = AlphaSchedule().values()[-1]
    problems = [build_scenario(name).problem for name in ("diagonal_unsolvable", "rank_deficient_gamma")]
    for problem in [*problems, *_unreachable_batch()]:
        decision = _decision(problem)
        assert decision.verdict is Verdict.NOT_SOLVABLE
        indicator = factor_regularized(problem).solve(smallest).indicator
        assert np.linalg.norm(indicator - decision.indicator_limit) <= 1e-5 * np.linalg.norm(problem.rhs)
        assert_allclose(decision.witness, decision.indicator_limit - problem.project(decision.indicator_limit))
