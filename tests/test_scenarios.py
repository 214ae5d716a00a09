"""Bundled scenario catalog: construction, parameters, expected verdicts."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finapprox import (
    EXPECTED_VERDICTS,
    ScenarioSpec,
    ValidationError,
    Verdict,
    alpha_sweep,
    build_scenario,
    decide,
    scenario_names,
)

ALL_NAMES = (
    "diagonal_solvable",
    "diagonal_unsolvable",
    "function_space_galerkin",
    "nilpotent_pi",
    "rank_deficient_gamma",
    "truncated_shift",
)


def test_catalog_names_sorted_and_complete():
    assert scenario_names() == ALL_NAMES
    assert set(EXPECTED_VERDICTS) == set(ALL_NAMES)


def test_every_scenario_reaches_expected_verdict():
    for name in scenario_names():
        scenario = build_scenario(name)
        report = alpha_sweep(scenario.problem)
        decision = decide(report)
        assert decision.verdict.value == EXPECTED_VERDICTS[name], name


def test_build_from_spec_object():
    spec = ScenarioSpec(name="truncated_shift", params={"N": 4})
    scenario = build_scenario(spec)
    assert scenario.problem.ambient_dim == 4
    # keyword parameters override the spec's mapping
    scenario = build_scenario(ScenarioSpec(name="truncated_shift", params={"N": 4}), N=5)
    assert scenario.problem.ambient_dim == 5


def test_unknown_scenario_lists_catalog():
    with pytest.raises(ValidationError) as excinfo:
        build_scenario("no_such_scenario")
    message = str(excinfo.value)
    for name in ALL_NAMES:
        assert name in message


def test_unknown_parameter_rejected():
    with pytest.raises(ValidationError):
        build_scenario("diagonal_solvable", M=3)
    with pytest.raises(ValidationError):
        build_scenario("truncated_shift", N=2)
    with pytest.raises(ValidationError):
        build_scenario("function_space_galerkin", M=3)
    with pytest.raises(ValidationError):
        build_scenario("function_space_galerkin", operator="unknown")


@pytest.mark.parametrize(
    "name,accepted",
    [
        ("truncated_shift", "['N']"),
        ("function_space_galerkin", "['M', 'operator']"),
        ("diagonal_solvable", "none"),
    ],
)
def test_unknown_parameter_names_unknown_and_accepted_keys(name, accepted):
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(name, m=8)
    message = str(excinfo.value)
    assert "unknown parameters ['m']" in message
    assert message.endswith(f"accepts {accepted}")


def test_truncated_shift_structure():
    scenario = build_scenario("truncated_shift", N=8)
    problem = scenario.problem
    assert problem.ambient_dim == 8
    assert problem.control_dim == 1
    assert problem.constraint.rank == 7
    expected = np.zeros(8)
    expected[1] = 1.0
    assert_allclose(problem.rhs, expected, atol=0)


def test_rank_deficient_gamma_structure():
    scenario = build_scenario("rank_deficient_gamma")
    problem = scenario.problem
    assert problem.operator is None
    assert problem.control_dim == 1
    assert not problem.validation.representable
    assert problem.validation.representable_rank == 2
    wide = build_scenario("rank_deficient_gamma", dimU=2).problem
    assert wide.validation.representable


def test_nilpotent_pi_structure():
    problem = build_scenario("nilpotent_pi").problem
    assert problem.validation.constraint_supplied_raw
    assert not problem.constraint_is_projector
    assert_allclose(problem.constraint_matrix, [[0.0, 1.0], [0.0, 0.0]], atol=0)


def test_function_space_galerkin_structure():
    scenario = build_scenario("function_space_galerkin", M=32)
    problem = scenario.problem
    family = scenario.family
    assert family is not None
    assert family.dim == 32
    assert family.max_n == 15
    assert problem.ambient_dim == 32
    # constraint is the projector onto the family's top level, sharing its array
    assert problem.constraint.rank == family.max_n + 1
    assert np.shares_memory(problem.constraint.basis, family.basis)
    # rhs embeds f(x) = x, whose discrete norm approximates 1/sqrt(3)
    assert_allclose(np.linalg.norm(problem.rhs), 1.0 / np.sqrt(3.0), atol=1e-3)


def test_function_space_damping_operator():
    problem = build_scenario("function_space_galerkin", M=16, operator="damping").problem
    assert problem.operator is not None
    diagonal = np.diag(problem.operator)
    grid = (np.arange(16) + 0.5) / 16.0
    assert_allclose(diagonal, 1.0 / (1.0 + grid), rtol=1e-14)
    report = alpha_sweep(problem)
    assert decide(report).verdict is Verdict.SOLVABLE


def test_scenarios_decide_verdicts_under_param_changes():
    for n in (3, 6, 12):
        report = alpha_sweep(build_scenario("truncated_shift", N=n).problem)
        assert decide(report).verdict is Verdict.SINGULAR


def test_building_a_monomial_problem_holds_one_transient_array():
    """Building function_space_galerkin with the damping diagonal reads G = L L^T and its
    overflow bound off L's entries: beyond what the scenario keeps, the only n x n array
    in flight is the scenario's L before the problem takes its entries. The problem
    keeps L and G as their entries, so all the scenario keeps, the family's basis
    included, is less than one n x n array."""
    m = 256
    tracemalloc.start()
    try:
        scenario = build_scenario("function_space_galerkin", M=m, operator="damping")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scenario.problem.gram.shape == (m, m)
    assert peak - retained <= 1.25 * 8 * m * m
    assert retained < 8 * m * m
