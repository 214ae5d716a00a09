"""Command line interface: subcommands, formats, exit codes, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finapprox
from finapprox import cli
from finapprox.cli import main
from helpers import record_linalg_calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_csv_report(capsys):
    code, out, _ = run(capsys, "analyze", "--scenario", "diagonal_unsolvable")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# finapprox v1"
    assert "# command=analyze" in lines
    assert "# verdict=NOT_SOLVABLE" in lines
    assert "# witness=0.0,1.0" in lines
    assert "# agreement=true" in lines
    header_index = lines.index(
        "alpha,norm_indicator,norm_residual,norm_constraint_residual,singular"
    )
    assert len(lines) - header_index - 1 == 8  # one row per scheduled alpha


def test_analyze_json_report(capsys):
    code, out, _ = run(capsys, "analyze", "--scenario", "diagonal_solvable", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == "finapprox v1"
    assert payload["verdict"] == "SOLVABLE"
    assert payload["witness"] is None
    assert payload["agreement"] is True
    assert len(payload["records"]) == 8
    assert payload["oracle"]["constrained_solvable"] is True


def test_analyze_gram_only_has_no_oracle(capsys):
    code, out, _ = run(capsys, "analyze", "--scenario", "rank_deficient_gamma", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NOT_SOLVABLE"
    assert payload["oracle"] is None
    assert payload["agreement"] is None


def test_sweep_schedule_flags(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--scenario", "diagonal_solvable",
        "--alpha0", "0.5", "--ratio", "0.5", "--count", "3",
    )
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 3
    assert rows[0].startswith("0.5,")
    assert rows[1].startswith("0.25,")


def test_singular_exit_code(capsys):
    code, out, _ = run(capsys, "sweep", "--scenario", "truncated_shift")
    assert code == 3
    assert "true" in out  # singular rows are still reported


def test_tol_decision_overrides_only_the_decision_threshold(capsys, tmp_path):
    """--tol-decision replaces the problem's decision_tol and keeps the file's other overrides.

    The file's rank_tol = 1e-3 counts L = diag(1, 1e-6) as rank 1, so h = (1, 1e-5)
    is 1e-5 of ||h|| out of reach, and the verdict and the oracle turn on
    decision_tol together; at the default rank_tol, L has rank 2 and both say
    solvable whatever the flag.
    """
    data = {
        "dimH": 2,
        "dimU": 2,
        "L": [[1.0, 0.0], [0.0, 1e-6]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1e-5],
        "tolerances": {"rank_tol": 1e-3},
    }
    path = tmp_path / "problem.json"

    def analyze(tol):
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--tol-decision", tol)
        assert code == 0
        return out.splitlines()

    path.write_text(json.dumps(data))
    for tol, verdict, solvable in (("1e-6", "NOT_SOLVABLE", "false"), ("1e-4", "SOLVABLE", "true")):
        lines = analyze(tol)
        assert f"# verdict={verdict}" in lines
        assert f"# oracle_constrained_solvable={solvable}" in lines
        assert "# agreement=true" in lines
    code, out, err = run(capsys, "analyze", "--input", str(path), "--tol-decision", "0")
    assert (code, out) == (2, "")
    assert "decision_tol" in err
    del data["tolerances"]
    path.write_text(json.dumps(data))
    for tol in ("1e-6", "1e-4"):
        lines = analyze(tol)
        assert "# verdict=SOLVABLE" in lines
        assert "# oracle_constrained_solvable=true" in lines


def test_verdict_and_oracle_read_one_reachability_threshold(capsys, tmp_path):
    """h = (1, 1e-7) lies 1e-7 of ||h|| from Range L: inside the default decision_tol,
    so the verdict and the oracle both call it reachable, and at 1e-8 both do not."""
    path = tmp_path / "band.json"
    path.write_text(json.dumps({
        "dimH": 2,
        "dimU": 1,
        "L": [[1.0], [0.0]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1e-7],
    }))
    for flags, verdict, solvable in (((), "SOLVABLE", "true"), (("--tol-decision", "1e-8"), "NOT_SOLVABLE", "false")):
        code, out, _ = run(capsys, "analyze", "--input", str(path), *flags)
        assert code == 0
        lines = out.splitlines()
        assert f"# verdict={verdict}" in lines
        assert f"# oracle_constrained_solvable={solvable}" in lines
        assert "# agreement=true" in lines


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--scenario", "diagonal_unsolvable")
    assert code == 0
    assert "constrained_solvable,false" in out
    assert "distance,1.0" in out


def test_oracle_rejects_gram_only(capsys):
    code, _, err = run(capsys, "oracle", "--scenario", "rank_deficient_gamma")
    assert code == 2
    assert "gram" in err


def test_galerkin_command(capsys):
    code, out, _ = run(
        capsys, "galerkin", "--scenario", "function_space_galerkin", "--param", "M=32"
    )
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("# family=") for line in lines)
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 8
    final = rows[-1].split(",")
    assert float(final[3]) <= 1e-3  # residual decays along the diagonal


def test_galerkin_file_input_needs_family(capsys, tmp_path):
    path = tmp_path / "problem.json"
    code, _, _ = run(capsys, "export", "--scenario", "diagonal_solvable", "--output", str(path))
    assert code == 0
    code, _, err = run(capsys, "galerkin", "--input", str(path))
    assert code == 2
    assert "family" in err
    code, out, _ = run(capsys, "galerkin", "--input", str(path), "--family", "coordinate")
    assert code == 0
    assert "step,n,alpha" in out


def test_validate_command(capsys):
    code, out, _ = run(capsys, "validate", "--scenario", "nilpotent_pi")
    assert code == 0
    assert "constraint_is_projector,false" in out
    assert "constraint_supplied_raw,true" in out


def test_validate_rejects_asymmetric_gram_file(capsys, tmp_path):
    path = tmp_path / "bad_gamma.json"
    path.write_text(
        json.dumps(
            {
                "dimH": 2,
                "dimU": 2,
                "Gamma": [[1.0, 0.5], [0.0, 1.0]],
                "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
                "h": [1.0, 1.0],
            }
        )
    )
    code, _, err = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert "symmetry defect" in err


def test_scenarios_list(capsys):
    code, out, _ = run(capsys, "scenarios-list")
    assert code == 0
    for name in (
        "diagonal_solvable",
        "diagonal_unsolvable",
        "truncated_shift",
        "rank_deficient_gamma",
        "nilpotent_pi",
        "function_space_galerkin",
    ):
        assert name in out


@pytest.mark.parametrize("command", ["validate", "analyze", "sweep", "oracle", "galerkin --family coordinate"])
def test_overflowing_gram_product_exits_two(capsys, tmp_path, command):
    """L L^T of a finite L can overflow; that is malformed input, not an internal error.

    ``galerkin`` never decomposes L, so only the check at construction guards it.
    """
    path = tmp_path / "overflow.json"
    path.write_text(
        json.dumps(
            {
                "dimH": 2,
                "dimU": 2,
                "L": [[1e160, 0.0], [0.0, 1.0]],
                "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
                "h": [1.0, 1.0],
            }
        )
    )
    code, out, err = run(capsys, *command.split(), "--input", str(path))
    assert code == 2
    assert out == ""
    assert "overflows" in err


def _diagonal_unsolvable_file(path, rhs):
    """``diagonal_unsolvable`` as a problem file with right-hand side ``rhs``."""
    path.write_text(
        json.dumps(
            {
                "dimH": 2,
                "dimU": 1,
                "L": [[1.0], [0.0]],
                "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
                "h": rhs,
            }
        )
    )
    return str(path)


@pytest.mark.parametrize(
    "command", [["analyze"], ["sweep"], ["oracle"], ["galerkin", "--family", "coordinate"], ["validate"]]
)
def test_rhs_with_overflowing_norm_exits_two(capsys, tmp_path, command):
    """Every threshold scales with ||h||; an h whose norm overflows would pass every test.
    h = [max, max] has norm sqrt(2) max; an h whose norm is finite is accepted
    (tests/test_malformed_input.py::test_rhs_with_a_finite_norm_is_accepted)."""
    path = _diagonal_unsolvable_file(tmp_path / "huge_rhs.json", [np.finfo(float).max] * 2)
    code, out, err = run(capsys, *command, "--input", path)
    assert code == 2
    assert out == ""
    assert "rhs is too large: its norm overflows" in err


@pytest.mark.parametrize("command", ["oracle", "analyze", "sweep", "validate"])
def test_oracle_overflowing_constraint_rows_exit_two(tmp_path, command):
    """The oracle's constraint rows times the singular values can overflow for finite
    input, whose Gram product and rhs norm pass their checks; that is malformed input,
    not an internal error. The commands that run no oracle succeed: the sweep's
    constraint residual norm, about 1.26e300, is finite, and the idempotency defect
    of the raw constraint overflows to inf, so it is no projector. Run under
    ``-W error``, so a numpy overflow warning on the way would exit 4."""
    path = tmp_path / "overflow.json"
    path.write_text(
        json.dumps(
            {
                "dimH": 2,
                "dimU": 2,
                "L": [[1e100, 3e99], [2e99, 1e80]],
                "constraint": {"type": "raw", "data": [[4e299, 4e299], [4e299, 1.0]]},
                "h": [1.0, 2.0],
            }
        )
    )
    src = str(Path(finapprox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-m", "finapprox.cli", command, "--input", str(path), "--format", "json"],
        env=env, capture_output=True, text=True,
    )
    if command in ("oracle", "analyze"):
        assert child.returncode == 2
        assert child.stdout == ""
        assert "error: range oracle overflows" in child.stderr
        return
    assert (child.returncode, child.stderr) == (0, "")
    report = json.loads(child.stdout)
    if command == "sweep":
        norms = [record["norm_constraint_residual"] for record in report["records"]]
        assert norms == [pytest.approx(4e299 * math.sqrt(10.0), rel=1e-12)] * 8  # ||P h||
    else:
        assert report["constraint_idempotency_defect"] is None  # inf, written as null
        assert report["constraint_is_projector"] is False


def test_large_finite_rhs_keeps_its_verdict(capsys, tmp_path):
    path = _diagonal_unsolvable_file(tmp_path / "large_rhs.json", [0.0, 1e100])
    code, out, _ = run(capsys, "analyze", "--input", path)
    assert code == 0
    assert "# verdict=NOT_SOLVABLE" in out.splitlines()


HUGE = 10**400  # a valid JSON integer that no float can hold


def _huge_number_problem(case):
    data = {
        "dimH": 2,
        "dimU": 2,
        "L": [[1.0, 0.0], [0.0, 1.0]],
        "constraint": {"type": "projector_basis", "data": [[1.0, 0.0]]},
        "h": [1.0, 1.0],
    }
    if case == "L":
        data["L"][0][0] = HUGE
    elif case == "Gamma":
        data["Gamma"] = [[HUGE, 0.0], [0.0, 1.0]]
    elif case == "h":
        data["h"][1] = HUGE
    elif case == "projector_basis":
        data["constraint"]["data"] = [[HUGE, 0.0]]
    elif case == "raw":
        data["constraint"] = {"type": "raw", "data": [[HUGE, 0.0], [0.0, 0.0]]}
    else:
        data["tolerances"] = {"rank_tol": HUGE}
    return data


@pytest.mark.parametrize(
    "case, field",
    [
        ("L", "'L'"),
        ("Gamma", "'Gamma'"),
        ("h", "'h'"),
        ("projector_basis", "'constraint.data'"),
        ("raw", "'constraint.data'"),
        ("tolerances", "'tolerances'"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "analyze", "oracle", "galerkin"])
def test_integer_too_large_for_a_float_exits_two(capsys, tmp_path, command, case, field):
    """JSON integers have no size limit; one that overflows a float is bad input, not an internal error."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_number_problem(case)))
    family = ["--family", "coordinate"] if command == "galerkin" else []
    code, out, err = run(capsys, command, "--input", str(path), *family)
    assert code == 2
    assert out == ""
    assert field in err
    assert "internal error" not in err


def test_constraint_with_overflowing_norm_is_kept(capsys, tmp_path):
    """A basis vector whose norm overflows spans the same line as its unit form.

    The line is ker L, so the constrained system is SINGULAR (exit 3); dropping
    the constraint would answer the unconstrained problem, SOLVABLE.
    """
    reports = []
    for vector in ([0.0, 1e308], [0.0, 1.0]):
        path = tmp_path / "problem.json"
        path.write_text(
            json.dumps(
                {
                    "dimH": 2,
                    "dimU": 2,
                    "L": [[1.0, 0.0], [0.0, 0.0]],
                    "constraint": {"type": "projector_basis", "data": [vector]},
                    "h": [1.0, 0.0],
                }
            )
        )
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert (code, err) == (3, "")
        reports.append(out)
    assert "# verdict=SINGULAR" in reports[0]
    assert reports[0] == reports[1]


def test_export_runs_no_decomposition(capsys, tmp_path, monkeypatch):
    """Exporting a scenario checks its problem but never decomposes it."""
    calls = record_linalg_calls(monkeypatch)
    path = tmp_path / "exported.json"
    code, _, _ = run(
        capsys, "export", "--scenario", "function_space_galerkin", "--param", "M=64",
        "--output", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text())["dimH"] == 64
    assert not [c for c in calls if c[1] == (64, 64)]


def test_export_and_reanalyze(capsys, tmp_path):
    path = tmp_path / "exported.json"
    code, _, _ = run(
        capsys, "export", "--scenario", "truncated_shift", "--param", "N=4",
        "--output", str(path),
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["dimH"] == 4
    code, out, _ = run(capsys, "analyze", "--input", str(path))
    assert code == 3  # every alpha singular for this scenario
    assert "# verdict=SINGULAR" in out


def test_export_needs_a_file_path(capsys, monkeypatch):
    """export writes a problem file, so ``--output -`` is refused, exit 2, before
    any problem is built."""

    def build_scenario(*_args, **_kwargs):
        pytest.fail("export built the problem before refusing --output -")

    monkeypatch.setattr(cli, "build_scenario", build_scenario)
    code, out, err = run(
        capsys, "export", "--scenario", "function_space_galerkin", "--param", "M=4096", "--output", "-"
    )
    assert (code, out) == (2, "")
    assert err == "error: export needs --output PATH for the problem file\n"


def test_output_file_and_determinism(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        code, _, _ = run(
            capsys, "analyze", "--scenario", "function_space_galerkin",
            "--param", "M=32", "--output", str(target),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_projector_reports_build_no_dense_projector(capsys, monkeypatch):
    """Projector constraints run every report from the basis alone."""
    import finapprox.hilbert as hilbert

    def refuse(*_args, **_kwargs):
        raise AssertionError("dense projector form requested")

    monkeypatch.setattr(hilbert, "projector_defects", refuse)
    monkeypatch.setattr(hilbert, "orthonormal_columns", refuse)
    for name, module in list(sys.modules.items()):  # every module that binds the n x n builder
        if name.startswith("finapprox") and hasattr(module, "_dense_constraint"):
            monkeypatch.setattr(module, "_dense_constraint", refuse)
    for command in ("analyze", "sweep", "oracle", "galerkin", "validate"):
        code, out, err = run(
            capsys, command, "--scenario", "function_space_galerkin", "--param", "M=16"
        )
        assert code == 0, err
        assert out.startswith("# finapprox v1")


def test_bad_scenario_name(capsys):
    code, _, err = run(capsys, "analyze", "--scenario", "bogus")
    assert code == 2
    assert "bogus" in err


def test_bad_param_syntax(capsys):
    code, _, err = run(capsys, "analyze", "--scenario", "truncated_shift", "--param", "N")
    assert code == 2
    assert "K=V" in err
    code, _, err = run(capsys, "analyze", "--scenario", "truncated_shift", "--param", "=3")
    assert code == 2
    assert "nonempty key" in err


def test_both_sources_rejected(capsys, tmp_path):
    path = tmp_path / "p.json"
    run(capsys, "export", "--scenario", "diagonal_solvable", "--output", str(path))
    code, _, err = run(
        capsys, "analyze", "--scenario", "diagonal_solvable", "--input", str(path)
    )
    assert code == 2
    assert "not both" in err


def test_missing_source_rejected(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2
    assert "--scenario" in err or "--input" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "analyze", "--input", "/no/such/file.json")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "{dir}"],
        ["validate", "--input", "{dir}"],
        ["analyze", "--scenario", "diagonal_unsolvable", "--output", "{dir}"],
        ["oracle", "--scenario", "diagonal_unsolvable", "--format", "json", "--output", "{dir}"],
        ["export", "--scenario", "diagonal_unsolvable", "--output", "{dir}"],
    ],
)
def test_directory_as_input_or_output_exits_two(capsys, tmp_path, argv):
    """A path that names a directory is an unreadable or unwritable file: bad input, named."""
    code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert str(tmp_path) in err
    assert "internal error" not in err


REPORT_COMMANDS = ("analyze", "sweep", "oracle", "galerkin", "validate")


@pytest.mark.parametrize("command", [*REPORT_COMMANDS, "scenarios-list", "export"])
def test_missing_output_directory_exits_two(capsys, tmp_path, command):
    """An output path in a missing directory is unwritable: bad input, named, and nothing is written."""
    target = tmp_path / "nodir" / "out.txt"
    source = [] if command == "scenarios-list" else ["--scenario", "function_space_galerkin", "--param", "M=16"]
    code, out, err = run(capsys, command, *source, "--output", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


def test_scenarios_list_takes_no_format(capsys):
    """The catalog is text only, so ``--format`` is a usage error there."""
    with pytest.raises(SystemExit) as excinfo:
        main(["scenarios-list", "--format", "json"])
    assert excinfo.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_verbose_applies_to_its_own_request(capsys, tmp_path):
    """``--verbose`` logs for the request that gives it, whatever ran before in the process."""
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "scenarios-list")[0] == 0
    code, _, err = run(capsys, "--verbose", "export", "--scenario", "diagonal_solvable", "--output", str(first))
    assert (code, err) == (0, f"INFO finapprox: wrote {first}\n")
    code, _, err = run(capsys, "export", "--scenario", "diagonal_solvable", "--output", str(second))
    assert (code, err) == (0, "")
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_verbose_leaves_reports_unchanged(capsys, command):
    argv = [command, "--scenario", "function_space_galerkin", "--param", "M=16", "--format", "json"]
    assert run(capsys, "--verbose", *argv) == run(capsys, *argv)


def test_internal_error_exits_four(capsys, monkeypatch):
    """A fault of the program, not of its input, exits 4 with its traceback and the message last."""

    def boom(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "alpha_sweep", boom)
    code, out, err = run(capsys, "analyze", "--scenario", "diagonal_solvable")
    assert (code, out) == (4, "")
    assert err.startswith("Traceback")
    assert err.splitlines()[-1] == "internal error: boom"


# Each option of the top parser (None) and of each subcommand, in order:
# (option, action class, default, type, choices, required).
SOURCE_OPTIONS = [
    ("--scenario", "_StoreAction", None, None, None, False),
    ("--param", "_AppendAction", None, None, None, False),
    ("--input", "_StoreAction", None, None, None, False),
]
SCHEDULE_OPTIONS = [
    ("--alpha0", "_StoreAction", 1.0, float, None, False),
    ("--ratio", "_StoreAction", 0.1, float, None, False),
    ("--count", "_StoreAction", 8, int, None, False),
]
OUTPUT_OPTIONS = [
    ("--output", "_StoreAction", None, None, None, False),
    ("--format", "_StoreAction", "csv", None, ("csv", "json"), False),
]
PARSER_SURFACE = {
    None: [("--verbose", "_StoreTrueAction", False, None, None, False)],
    "analyze": [
        *SOURCE_OPTIONS, *SCHEDULE_OPTIONS, *OUTPUT_OPTIONS,
        ("--tol-decision", "_StoreAction", None, float, None, False),
    ],
    "sweep": [*SOURCE_OPTIONS, *SCHEDULE_OPTIONS, *OUTPUT_OPTIONS],
    "oracle": [*SOURCE_OPTIONS, *OUTPUT_OPTIONS],
    "galerkin": [
        *SOURCE_OPTIONS, *SCHEDULE_OPTIONS, *OUTPUT_OPTIONS,
        ("--family", "_StoreAction", None, None, ("sine", "coordinate"), False),
    ],
    "validate": [*SOURCE_OPTIONS, *OUTPUT_OPTIONS],
    "scenarios-list": [("--output", "_StoreAction", None, None, None, False)],
    "export": [
        ("--scenario", "_StoreAction", None, None, None, True),
        ("--param", "_AppendAction", None, None, None, False),
        ("--output", "_StoreAction", None, None, None, True),
    ],
}


def test_parser_surface():
    """The parser and each subcommand offer exactly the options of PARSER_SURFACE, in order."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = {None: parser, **subparsers.choices}

    def surface(p):
        return [
            (*a.option_strings, type(a).__name__, a.default, a.type, a.choices, a.required)
            for a in p._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]

    assert {name: surface(p) for name, p in parsers.items()} == PARSER_SURFACE
    assert list(parsers) == list(PARSER_SURFACE)


def test_main_builds_its_parser_once(capsys):
    """Successive requests in one process share one parser and report as fresh ones do."""
    requests = [
        ["analyze", "--scenario", "diagonal_unsolvable"],
        ["galerkin", "--scenario", "function_space_galerkin", "--param", "M=16", "--format", "json"],
        ["validate", "--scenario", "rank_deficient_gamma"],
        ["analyze", "--scenario", "diagonal_unsolvable"],
    ]
    fresh = []
    for argv in requests:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in requests] == fresh
    assert cli._parser.cache_info().misses == 1


def test_usage_error_exits_two(capsys, tmp_path):
    """argparse refuses what the parser requires, such as export's --scenario."""
    for argv in (["no-such-command"], ["export", "--output", str(tmp_path / "p.json")]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    assert "--scenario" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


SINGLE_BLAS_CHILD = """
import contextlib, io, json, sys
from finapprox.cli import main

fs = ["--scenario", "function_space_galerkin", "--param", "M=16"]
requests = [[command, *fs] for command in ("analyze", "galerkin", "oracle", "validate")]
requests += [["analyze", "--scenario", name] for name in ("nilpotent_pi", "rank_deficient_gamma")]
codes = []
for argv in requests:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_requests_load_no_second_blas():
    """A fresh interpreter serves every kind of request without importing scipy.

    scipy ships its own OpenBLAS with its own thread pool; the program runs
    every dense kernel through numpy's, so only one BLAS is ever loaded.
    """
    src = str(Path(finapprox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", SINGLE_BLAS_CHILD], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 6
    assert result["scipy"] == []


def _json_rule(value):
    """The JSON rule of the reports, as a pass before ``json.dumps``: non-finite
    floats become None, arrays and tuples lists."""
    if isinstance(value, dict):
        return {key: _json_rule(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_rule(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_json_rule(float(x)) for x in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64), st.text())
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, st.lists(FLOATS, max_size=4).map(np.array)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
def test_report_writer_matches_json_dumps(value):
    """The one-pass writer gives the bytes of ``json.dumps(indent=2, sort_keys=True)`` under the JSON rule."""
    expected = json.dumps(_json_rule(value), indent=2, sort_keys=True, allow_nan=False)
    assert cli._json(value) == expected
