"""JSON problem files: round trips, schema validation, error reporting."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import finapprox
from finapprox import (
    ProblemFileError,
    Tolerances,
    build_scenario,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from finapprox.cli import main


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
    assert loaded.constraint_rows.tobytes() == problem.constraint_rows.tobytes()
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


KNOWN_TOLERANCES = re.escape("['rank_tol', 'singular_tol', 'decision_tol', 'oracle_tol']")


@pytest.mark.parametrize(
    "tolerances,needle",
    [
        ({"decision_tol": True}, "decision_tol.*True"),
        ({"bogus": "x"}, "bogus"),
        # the structural checks' fixed threshold and the identity bound are not tolerances
        pytest.param({"tol_sym": 1e-8}, rf"\['tol_sym'\]; known: {KNOWN_TOLERANCES}", id="tol_sym"),
        pytest.param({"id_tol": 1e-9}, rf"\['id_tol'\]; known: {KNOWN_TOLERANCES}", id="id_tol"),
    ],
)
def test_bad_file_tolerances_are_refused(capsys, tmp_path, tolerances, needle):
    """A ``tolerances`` entry that is not a positive real, or names no field of the
    four-field Tolerances, is refused by the loader and exits 2 from analyze."""
    data = {
        "dimH": 2,
        "dimU": 2,
        "L": [[1.0, 0.0], [0.0, 1.0]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1.0],
        "tolerances": tolerances,
    }
    with pytest.raises(ProblemFileError, match=needle):
        problem_from_dict(data)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ProblemFileError, match=needle):
        load_problem(path)
    assert main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.search(needle, captured.err)


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


def _analyze(capsys, data, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code = main(["analyze", "--input", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(tolerances=3), "field 'tolerances' must be an object"),
        (lambda d: d["constraint"].update(data=5), "field 'constraint.data' must be a list"),
        (lambda d: d["constraint"].update(data=[[1.0, 0.0], [1.0]]), "mixed lengths"),
        (lambda d: d["constraint"].update(data=[[1.0, 0.0, 0.0]]), "length 3, expected dim 2"),
    ],
)
def test_refused_problem_file_exits_two(capsys, tmp_path, mutate, needle):
    """A tolerances field that is no object, projector data that is no list, and basis
    vectors of mixed or wrong length each exit 2 with nothing on stdout."""
    data = {
        "dimH": 2,
        "dimU": 2,
        "L": [[1.0, 0.0], [0.0, 1.0]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1.0],
    }
    mutate(data)
    code, out, err = _analyze(capsys, data, tmp_path)
    assert (code, out) == (2, "")
    assert needle in err


@pytest.mark.parametrize("tolerances", [{"rank_tol": 1e-3}, None])
def test_file_tolerances_do_not_change_the_constraint(capsys, tmp_path, tolerances):
    """A file's ``tolerances`` set ``problem.tols`` only: the second basis vector's
    remainder 1e-6 is below ``rank_tol`` = 1e-3, yet it is kept, so the constraint
    is all of R^2 as the file states, Gamma_QQ = diag(1, 0) is singular, and the
    answer is the one of the file without ``tolerances``."""
    data = {
        "dimH": 2,
        "dimU": 1,
        "L": [[1.0], [0.0]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0], [1.0, 1e-6]]},
        "h": [1.0, 0.0],
    }
    if tolerances is not None:
        data["tolerances"] = tolerances
    problem = problem_from_dict(data)
    assert problem.constraint.rank == 2
    assert problem.tols == Tolerances(**(tolerances or {}))
    code, out, err = _analyze(capsys, data, tmp_path)
    assert (code, err) == (3, "")
    assert "# verdict=SINGULAR" in out.splitlines()


def test_round_trip_keeps_only_the_changed_tolerances(capsys, tmp_path):
    """save_problem writes just the fields that differ from the defaults, load_problem
    restores them, and analyze decides by them: ||N^T h|| / ||h|| is 1e-8 here."""
    data = {
        "dimH": 2,
        "dimU": 1,
        "L": [[1.0], [0.0]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1e-8],
        "tolerances": {"decision_tol": 1e-12, "oracle_tol": 1e-3},
    }
    path = tmp_path / "saved.json"
    save_problem(problem_from_dict(data), path)
    assert json.loads(path.read_text())["tolerances"] == data["tolerances"]
    assert load_problem(path).tols == Tolerances(decision_tol=1e-12, oracle_tol=1e-3)
    code, out, _err = _analyze(capsys, json.loads(path.read_text()), tmp_path)
    assert code == 0
    assert "# verdict=NOT_SOLVABLE" in out.splitlines()
    del data["tolerances"]
    save_problem(problem_from_dict(data), path)
    assert "tolerances" not in json.loads(path.read_text())


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


MAX = sys.float_info.max
FLOAT_SPELLINGS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX]),
).map(repr)
INTEGER_SPELLINGS = st.one_of(
    st.integers(-(2**64), 2**64),
    st.integers(-(10**300), 10**300),
    st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, -(2**63), -(2**63) - 1]),
).map(str)


@st.composite
def decimal_spellings(draw):
    """A JSON number of up to 40 significant digits, with or without a fraction and an
    exponent; the exponent stays below the float range's top, and may fall past its bottom."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.integers(0, len(digits)))
    text = draw(st.sampled_from(["", "-"])) + (digits[:point].lstrip("0") or "0")
    if point < len(digits):
        text += "." + digits[point:]
    if draw(st.booleans()):
        marker = draw(st.sampled_from(["e", "E", "e+", "e-", "E-"]))
        text += marker + str(draw(st.integers(0, 400 if marker.endswith("-") else 268)))
    return text


@pytest.fixture(scope="module")
def number_path(tmp_path_factory):
    return tmp_path_factory.mktemp("numbers") / "problem.json"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(spellings=st.lists(st.one_of(FLOAT_SPELLINGS, INTEGER_SPELLINGS, decimal_spellings()), min_size=1, max_size=6))
def test_numbers_load_as_the_stdlib_parses_them_bit_for_bit(number_path, spellings):
    """The drawn spellings, on the diagonal of a raw constraint (which takes any finite
    entry), load to the floats ``json.loads`` and numpy make of them, bit for bit."""
    n = len(spellings)
    rows = ", ".join("[" + ", ".join(s if i == j else "0" for j in range(n)) + "]" for i, s in enumerate(spellings))
    text = (
        f'{{"dimH": {n}, "dimU": 1, "L": {json.dumps([[1.0]] * n)}, '
        f'"constraint": {{"type": "raw", "data": [{rows}]}}, "h": {json.dumps([1.0] * n)}}}'
    )
    number_path.write_text(text)
    expected = np.asarray(json.loads(text)["constraint"]["data"], dtype=float)
    assert load_problem(number_path).constraint_rows.tobytes() == expected.tobytes()


LAZY_IMPORT_CHILD = """
import contextlib, io, json, sys
import finapprox.cli

def loaded():
    return [name for name in ("orjson", "numpy.ma") if name in sys.modules]

stages = {"import": loaded()}
argv = ["analyze", "--scenario", "function_space_galerkin", "--param", "M=64"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [finapprox.cli.main(argv)]
stages["scenario"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(finapprox.cli.main(["export", "--scenario", "nilpotent_pi", "--output", sys.argv[1]]))
    codes.append(finapprox.cli.main(["analyze", "--input", sys.argv[1]]))
stages["input"] = loaded()
print(json.dumps({"codes": codes, "stages": stages}))
"""


def test_scenario_requests_import_neither_orjson_nor_numpy_ma(tmp_path):
    """A fresh interpreter imports orjson only to read a problem file, and numpy.ma never."""
    src = str(Path(finapprox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_CHILD, str(tmp_path / "problem.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["stages"] == {"import": [], "scenario": [], "input": ["orjson"]}
