"""JSON problem files: round trips, schema validation, error reporting."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finapprox import (
    ProblemFileError,
    build_scenario,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)


@pytest.mark.parametrize(
    "name,params",
    [
        ("diagonal_solvable", {}),
        ("diagonal_unsolvable", {}),
        ("truncated_shift", {"N": 5}),
        ("rank_deficient_gamma", {}),
        ("nilpotent_pi", {}),
        ("function_space_galerkin", {"M": 16}),
    ],
)
def test_round_trip_preserves_problem(tmp_path, name, params):
    problem = build_scenario(name, **params).problem
    path = tmp_path / f"{name}.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.ambient_dim == problem.ambient_dim
    assert loaded.control_dim == problem.control_dim
    assert_allclose(loaded.rhs, problem.rhs, atol=0)
    assert_allclose(loaded.gram, problem.gram, atol=1e-15)
    if problem.operator is None:
        assert loaded.operator is None
    else:
        assert_allclose(loaded.operator, problem.operator, atol=1e-15)
    assert_allclose(loaded.constraint_matrix, problem.constraint_matrix, atol=1e-15)
    assert loaded.constraint_is_projector == problem.constraint_is_projector


def test_round_trip_is_byte_stable(tmp_path):
    problem = build_scenario("function_space_galerkin", M=8).problem
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save_problem(problem, first)
    save_problem(load_problem(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_minimal_dict_with_operator():
    problem = problem_from_dict(
        {
            "dimH": 2,
            "dimU": 2,
            "L": [[1.0, 0.0], [0.0, 1.0]],
            "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
            "h": [1.0, 1.0],
        }
    )
    assert problem.ambient_dim == 2
    assert problem.constraint_is_projector


def test_gram_only_dict():
    problem = problem_from_dict(
        {
            "dimH": 3,
            "dimU": 1,
            "Gamma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
            "constraint": {"type": "projector_basis", "data": [[1.0, 0.0, 0.0]]},
            "h": [1.0, 1.0, 1.0],
        }
    )
    assert problem.operator is None
    assert not problem.validation.representable


def test_raw_constraint_dict():
    problem = problem_from_dict(
        {
            "dimH": 2,
            "dimU": 2,
            "L": [[1.0, 0.0], [0.0, 1.0]],
            "constraint": {"type": "raw", "data": [[0.0, 1.0], [0.0, 0.0]]},
            "h": [0.0, 1.0],
        }
    )
    assert problem.validation.constraint_supplied_raw


def test_tolerance_overrides():
    data = {
        "dimH": 2,
        "dimU": 2,
        "L": [[1.0, 0.0], [0.0, 1.0]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1.0],
        "tolerances": {"decision_tol": 1e-3},
    }
    problem = problem_from_dict(data)
    assert problem.tols.decision_tol == 1e-3
    assert problem.tols.rank_tol == 1e-10  # untouched fields keep defaults
    data["tolerances"] = {"no_such_tol": 1.0}
    with pytest.raises(ProblemFileError, match="no_such_tol"):
        problem_from_dict(data)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("dimH"), "dimH"),
        (lambda d: d.pop("dimU"), "dimU"),
        (lambda d: d.pop("constraint"), "constraint"),
        (lambda d: d.pop("h"), "h"),
        (lambda d: d.update(L=None) or d.pop("L"), "L.*Gamma"),
        (lambda d: d.update(extra_field=1), "extra_field"),
        (lambda d: d.update(dimH=0), "dimH"),
        (lambda d: d.update(h=[1.0]), "h"),
        (lambda d: d.update(constraint={"type": "mystery", "data": []}), "mystery"),
        (lambda d: d.update(constraint={"type": "raw"}), "data"),
        (lambda d: d.update(tolerances={"decision_tol": True}), "decision_tol.*True"),
        (lambda d: d.update(tolerances={"rank_tol": "1e-3"}), "rank_tol.*'1e-3'"),
    ],
)
def test_schema_violations(mutate, needle):
    data = {
        "dimH": 2,
        "dimU": 2,
        "L": [[1.0, 0.0], [0.0, 1.0]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1.0],
    }
    mutate(data)
    with pytest.raises(ProblemFileError, match=needle):
        problem_from_dict(data)


def test_nonfinite_values_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"dimH": 2, "dimU": 2, "L": [[1.0, 0.0], [0.0, NaN]], '
        '"constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]}, '
        '"h": [1.0, 1.0]}'
    )
    with pytest.raises(ProblemFileError, match="[Nn]on-finite|NaN"):
        load_problem(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimH": 2,,}')
    with pytest.raises(ProblemFileError, match="line"):
        load_problem(path)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_problem("/nonexistent/path/problem.json")


def test_dict_serialization_shape():
    problem = build_scenario("diagonal_unsolvable").problem
    data = problem_to_dict(problem)
    assert set(data) == {"dimH", "dimU", "L", "Gamma", "constraint", "h"}
    assert data["constraint"]["type"] == "projector_basis"
    text = json.dumps(data, sort_keys=True)
    rebuilt = problem_from_dict(json.loads(text))
    assert_allclose(rebuilt.rhs, problem.rhs, atol=0)
