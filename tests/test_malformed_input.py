"""Malformed problem files are bad input: every report command exits 0, 2 or 3, never 4.

Each example takes a valid problem file and applies one to three mutations:
a value anywhere in the document is swapped for one of the wrong type, shape
or size (huge integers, overflowing floats), or a key or list entry is dropped.
A second property draws well-formed files whose entries span the float range.
Files the hypothesis strategy cannot write, with bytes that are not UTF-8 or
arrays nested 100,000 deep, are explicit cases. An alpha schedule that
underflows or overflows is bad input too, and so is an alpha whose capacitance
weights, T_alpha or solve leave the float range.
"""

import contextlib
import copy
import io
import json
import re

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finapprox.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_SINGULAR, main
from finapprox.hilbert import ValidationError
from finapprox.problemfile import problem_from_dict, problem_to_dict
from finapprox.resolvent import regularized_operator
from finapprox.scenarios import build_scenario

COMMANDS = (["analyze"], ["sweep"], ["oracle"], ["galerkin", "--family", "coordinate"], ["validate"])
# an operator with a raw constraint, a Gram operator alone, an operator with a projector
BASES = tuple(
    json.loads(json.dumps(problem_to_dict(build_scenario(name).problem)))
    for name in ("nilpotent_pi", "rank_deficient_gamma", "diagonal_unsolvable")
)
MAX = float(np.finfo(float).max)
HUGE_RHS = {**BASES[2], "h": [MAX, MAX]}  # its norm, sqrt(2) max, overflows

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e200, -1e308, 1e-320, 0.0, 1, 10**400, -(10**400)]),
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    NUMBERS,
    st.lists(NUMBERS, max_size=3),
    st.lists(st.lists(NUMBERS, max_size=3), max_size=3),
    st.fixed_dictionaries({"type": st.sampled_from(["raw", "projector_basis", "?"]), "data": NUMBERS}),
)


def _paths(node, prefix=()):
    """Every location in a JSON document, as the key sequence that reaches it."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def malformed_problems(draw):
    problem = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(problem))))
        if not path:
            return draw(JUNK)
        parent = problem
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JUNK)
    return problem


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed") / "problem.json"


def _exit_codes(path, problem, schedule=()) -> list[int]:
    """Exit codes of the five commands; ``schedule`` options go to those that sweep alpha."""
    path.write_text(json.dumps(problem))
    codes = []
    for command in COMMANDS:
        options = schedule if command[0] in ("analyze", "sweep", "galerkin") else ()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([*command, "--input", str(path), *options]))
    return codes


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@example(problem=HUGE_RHS, allowed={EXIT_BAD_INPUT})
@given(problem=malformed_problems(), allowed=st.just({EXIT_OK, EXIT_BAD_INPUT, EXIT_SINGULAR}))
def test_malformed_problem_file_never_exits_four(problem_path, problem, allowed):
    assert set(_exit_codes(problem_path, problem)) <= allowed


DEEP = "[" * 100_000 + "]" * 100_000
VALID = json.dumps(BASES[2])


@pytest.mark.parametrize(
    "document,orjson_reads,message",
    [
        (VALID[:-1].encode() + b', "note": "caf\xe9"}', False, "is not UTF-8"),
        (DEEP.encode(), True, "must hold a JSON object"),
        (VALID.replace('"dimH": 2', f'"dimH": {DEEP}').encode(), True, "nested too deeply"),
        (VALID.replace('"h": [0.0, 1.0]', f'"h": {DEEP}').encode(), True, "field 'h' is not numeric"),
        (DEEP.replace("[]", "[NaN]").encode(), False, "nested too deeply"),
    ],
    ids=["not-utf8", "deep-document", "deep-dimH", "deep-h", "deep-with-nan"],
)
def test_undecodable_or_deep_file_exits_two(capsys, tmp_path, document, orjson_reads, message):
    """orjson reads the deep files, and the stdlib decoder the two it refuses; each route
    ends in exit 2 with a message, never in a UnicodeDecodeError or RecursionError."""
    try:
        orjson.loads(document)
    except orjson.JSONDecodeError:
        assert not orjson_reads
    else:
        assert orjson_reads
    path = tmp_path / "problem.json"
    path.write_bytes(document)
    for command in COMMANDS:
        assert main([*command, "--input", str(path)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


@st.composite
def extreme_problems(draw):
    """Well-formed files with dimensions 1-5: 80 % with L and 20 % Gram-only, half with a raw
    constraint; L (or Gamma) and h are each scaled by 10**u on a third of draws, a raw R on
    half of them, with u in [-300, 300]."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def matrix(rows, cols):
        entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=rows * cols, max_size=rows * cols))
        return np.reshape(entries, (rows, cols))

    def scale(scaled):
        return 10.0 ** draw(st.floats(-300.0, 300.0)) if scaled else 1.0

    third = st.integers(0, 2).map(lambda k: k == 0)
    l, l_scale = matrix(n, m), scale(draw(third))
    problem = {"dimH": n, "dimU": m, "h": (matrix(n, 1)[:, 0] * scale(draw(third))).tolist()}
    if draw(st.integers(0, 4)):
        problem["L"] = (l * l_scale).tolist()
    else:  # the Gram matrix of the unscaled L, scaled, so the file stays finite
        problem["Gamma"] = (l @ l.T * l_scale).tolist()
    if draw(st.booleans()):
        problem["constraint"] = {"type": "raw", "data": (matrix(n, n) * scale(draw(st.booleans()))).tolist()}
    else:
        problem["constraint"] = {"type": "projector_basis", "data": matrix(draw(st.integers(0, n)), n).tolist()}
    return problem


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(problem=extreme_problems(), exponent=st.floats(-146.0, 154.0))
def test_extreme_scale_problem_file_never_exits_four(problem_path, problem, exponent):
    """Every alpha0 drawn is accepted by the schedule's own bounds, so an exit 2 comes from
    the problem: an overflowing Gram product, constraint or solve."""
    schedule = ("--alpha0", repr(10.0**exponent))
    assert set(_exit_codes(problem_path, problem, schedule)) <= {EXIT_OK, EXIT_BAD_INPUT, EXIT_SINGULAR}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--count", "170"],
        ["sweep", "--count", "163"],
        ["sweep", "--count", "155"],  # the first count whose smallest alpha, 1e-154, is below 1.49e-154
        ["galerkin", "--family", "coordinate", "--count", "154"],  # its last alpha is 0.1**154
        ["analyze", "--alpha0", "1e-160", "--count", "1"],
        ["sweep", "--count", "1" + "0" * 400],
    ],
)
def test_underflowing_alpha_schedule_exits_two(capsys, argv):
    """Below sqrt(tiny), about 1.49e-154, alpha**2 is subnormal and a zero Gram eigenvalue
    gives 0 / 0: such a schedule is refused, not reported as NaN rows or a changed verdict."""
    assert main([*argv, "--scenario", "diagonal_unsolvable"]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "alpha schedule underflows" in captured.err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["analyze", "--count", "154"], "# verdict=NOT_SOLVABLE\n"),
        (["galerkin", "--family", "coordinate", "--count", "153"], "\n153,2,1.0000000000000085e-153,"),
    ],
)
def test_smallest_accepted_alpha_schedule_runs(capsys, argv, expected):
    assert main([*argv, "--scenario", "diagonal_unsolvable"]) == EXIT_OK
    captured = capsys.readouterr()
    assert expected in captured.out and captured.err == ""


@pytest.mark.parametrize("command", [["analyze"], ["sweep"], ["galerkin", "--family", "coordinate"]])
@pytest.mark.parametrize("alpha0", ["1e155", "1.3407807929942599e154"])  # the second is the float after sqrt(max)
def test_overflowing_alpha_schedule_exits_two(capsys, command, alpha0):
    """Above sqrt(max), about 1.34e154, alpha**2 overflows and every capacitance entry
    lam / (alpha (lam + alpha)) is 0: such a schedule is refused, not reported as an internal error."""
    assert main([*command, "--scenario", "diagonal_unsolvable", "--alpha0", alpha0]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "alpha schedule overflows" in captured.err


@pytest.mark.parametrize("command", [["analyze"], ["sweep"], ["galerkin", "--family", "coordinate"]])
@pytest.mark.parametrize("alpha0", ["1e150", "1.3407807929942596e154"])  # the second is sqrt(max)
def test_largest_accepted_alpha_schedule_runs(capsys, command, alpha0):
    assert main([*command, "--scenario", "diagonal_unsolvable", "--alpha0", alpha0]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def _scaled_unsolvable(tmp_path, entry):
    """``diagonal_unsolvable`` with L = [[entry], [0]]: G's largest eigenvalue is entry**2."""
    problem = {"dimH": 2, "dimU": 1, "L": [[entry], [0.0]], "h": [0.0, 1.0]}
    problem["constraint"] = {"type": "projector_basis", "data": [[1.0, 0.0]]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return str(path)


@pytest.mark.parametrize("command", [["analyze"], ["sweep"], ["galerkin", "--family", "coordinate"]])
@pytest.mark.parametrize("entry,alpha0", [(1e150, "1e10"), (1e150, "1e150"), (1e-153, "1e12")])
def test_zero_capacitance_weight_exits_two(capsys, tmp_path, command, entry, alpha0):
    """With lam_max = 1e300, alpha (lam_max + alpha) overflows; with lam_max = 1e-306,
    lam_max / (alpha (lam_max + alpha)) underflows. Either way every capacitance weight
    is 0, and the alpha is refused as bad input rather than reported as an internal error."""
    assert main([*command, "--input", _scaled_unsolvable(tmp_path, entry), "--alpha0", alpha0]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "is out of range for this problem" in captured.err
    assert f"largest Gram eigenvalue {entry * entry:.3g}," in captured.err


@pytest.mark.parametrize("command", [["analyze"], ["sweep"], ["galerkin", "--family", "coordinate"]])
@pytest.mark.parametrize("entry", [1e150, 1e-153])
def test_extreme_gram_scale_runs_at_the_default_schedule(capsys, tmp_path, command, entry):
    assert main([*command, "--input", _scaled_unsolvable(tmp_path, entry)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


# a raw constraint near 1e217: alpha (I - R) overflows once alpha passes about 1e91
HUGE_RAW = {
    "dimH": 2, "dimU": 2, "L": [[1.0, 0.5], [0.2, 1.0]], "h": [1.0, 2.0],
    "constraint": {"type": "raw", "data": [[1e217, 3e216], [-2e216, 5e216]]},
}


@pytest.mark.parametrize("command", [["analyze"], ["sweep"]])
@pytest.mark.parametrize("alpha0", ["1e95", "1e100"])
def test_overflowing_raw_regularized_operator_exits_two(capsys, tmp_path, command, alpha0):
    """T_alpha = alpha (I - R) + G is not finite at the first alpha: refused as bad input,
    not solved through an overflow warning or a failed SVD."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(HUGE_RAW))
    assert main([*command, "--input", str(path), "--alpha0", alpha0]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    message = f"alpha {float(alpha0):.3g} is out of range for this problem"
    assert captured.out == "" and message in captured.err
    with pytest.raises(ValidationError, match=re.escape(message)):  # raised, not an overflow warning
        regularized_operator(float(alpha0), problem_from_dict(HUGE_RAW))


def test_oracle_on_a_huge_raw_constraint_reports_a_finite_residual(capsys, tmp_path):
    """The residual of the constraint rows, about 3.5e201, squares past the float range;
    its norm is still finite."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(HUGE_RAW))
    assert main(["oracle", "--input", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    residual = float(captured.out.split("exact_part_residual,")[1].split()[0])
    assert captured.err == "" and 1e201 < residual < 1e202


# h = [max]: its norm is finite, though the square np.linalg.norm forms is not
FINITE_NORM_RHS = {"dimH": 1, "dimU": 1, "L": [[1.0]], "h": [MAX]}


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize(
    "constraint",
    [{"type": "raw", "data": [[0.0]]}, {"type": "projector_basis", "data": []}],
    ids=["raw", "zero-projector"],
)
def test_rhs_with_a_finite_norm_is_accepted(capsys, tmp_path, constraint, command):
    """The rhs is refused only when its norm overflows, and this one is solved: each
    solve is for 2^-e h, so its refinement residual T_alpha z stays in the float range
    where z does, and every record is finite."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**FINITE_NORM_RHS, "constraint": constraint}))
    assert main([*command, "--input", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    records = [line for line in captured.out.splitlines() if not line.startswith("#")]
    assert captured.err == "" and records
    assert not re.search(r"\b(nan|inf)\b", "\n".join(records), re.IGNORECASE)


# G near 1e296 and h near 1e152: at alpha = 1 the solve's component in the zero projector's
# complement is about 1e152, and G times it overflows
HUGE_SOLVE = {
    "dimH": 2, "dimU": 1, "L": [[1.7e148], [-7.4e147]], "h": [1.1e152, 6.1e151],
    "constraint": {"type": "projector_basis", "data": []},
}
# the constraint rows applied to h, about 1e373, pass the float range
HUGE_ROWS_ON_H = {
    "dimH": 2, "dimU": 1, "L": [[0.45], [1.03]], "h": [7e90, 5.5e89],
    "constraint": {"type": "raw", "data": [[-4.7e283, -3e283], [-2.2e283, -5.9e283]]},
}
# the raw constraint rows, 1e300, times the singular values, 1e100, pass the float range
HUGE_ROWS_TIMES_SIGMA = {
    "dimH": 2, "dimU": 2, "L": [[1e100, 0.0], [0.0, 1e100]], "h": [1.0, 1.0],
    "constraint": {"type": "raw", "data": [[1e300, 0.0], [0.0, 1e300]]},
}
# Gamma + Gamma^T, the symmetric part's numerator, passes the float range
HUGE_GAMMA = {
    "dimH": 2, "dimU": 2, "Gamma": [[1e308, 1e308], [1e308, 1e308]], "h": [1.0, 1.0],
    "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
}


@pytest.mark.parametrize(
    "problem,command,message",
    [
        (HUGE_SOLVE, ["analyze"], "alpha 1 is out of range for this problem"),
        (HUGE_SOLVE, ["sweep"], "alpha 1 is out of range for this problem"),
        (HUGE_SOLVE, ["galerkin", "--family", "coordinate"], "alpha 0.1 is out of range for this problem"),
        (HUGE_ROWS_ON_H, ["oracle"], "range oracle overflows: the constraint rows applied to h"),
        (HUGE_ROWS_TIMES_SIGMA, ["oracle"], "range oracle overflows: the constraint rows times singular values"),
        (HUGE_GAMMA, ["validate"], "the gram operator overflows"),
    ],
    ids=["solve-analyze", "solve-sweep", "solve-galerkin", "rows-on-h-oracle", "rows-times-sigma-oracle", "gamma"],
)
def test_result_past_the_float_range_exits_two(capsys, tmp_path, problem, command, message):
    """A Gram spectrum, solve or oracle whose arrays leave the float range is refused, not
    reported as nan norms or a nan residual with exit 0."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main([*command, "--input", str(path)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("command", [["validate"], ["analyze"]])
def test_gram_only_file_near_the_float_range_runs(capsys, tmp_path, command):
    """||Gamma||_F squares past the float range; its norm, the scale of the symmetry and
    semidefiniteness checks, is still finite."""
    problem = {
        "dimH": 2, "dimU": 2, "Gamma": [[1e300, 0.0], [0.0, 2e299]], "h": [1.0, 1.0],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main([*command, "--input", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
