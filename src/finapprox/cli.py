"""Command line interface.

Subcommands: analyze, sweep, oracle, galerkin, validate, scenarios-list,
export. Problems come from a bundled scenario (--scenario, with repeatable
--param K=V) or a JSON problem file (--input). Reports are CSV (default) or
JSON, written to stdout or --output, and are byte-identical across runs of
the same configuration on the same build.

Exit codes: 0 success, 2 bad input, 3 every scheduled alpha singular,
4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import traceback
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analyzer import AlphaSchedule, Verdict, alpha_sweep, decide, range_oracle
from .galerkin import SubspaceFamily, coordinate_family, diagonal_steps, galerkin_sweep, sine_family
from .hilbert import ProblemInstance, ValidationError
from .problemfile import ProblemFileError, load_problem, save_problem
from .scenarios import (
    EXPECTED_VERDICTS,
    SCENARIO_DESCRIPTIONS,
    SCENARIO_PARAMS,
    build_scenario,
    scenario_names,
)

__all__ = ["main", "build_parser"]

HEADER = "# finapprox v1"
EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_SINGULAR = 3
EXIT_INTERNAL = 4


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValidationError(f"--param expects K=V, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    raw = raw.strip()
    if not key:
        raise ValidationError(f"--param expects a nonempty key, got {text!r}")
    value: object
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return key, value


def _load(args) -> tuple[ProblemInstance, Optional[SubspaceFamily], dict[str, str]]:
    """Resolve --scenario/--input into a problem, optional family, and source tags."""
    if args.scenario and args.input:
        raise ValidationError("give either --scenario or --input, not both")
    if args.scenario:
        params = dict(_parse_param(p) for p in (args.param or []))
        scenario = build_scenario(args.scenario, **params)
        source = {"scenario": scenario.name}
        if params:
            source["params"] = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return scenario.problem, scenario.family, source
    if args.input:
        return load_problem(args.input), None, {"input": str(args.input)}
    raise ValidationError("a problem source is required: --scenario NAME or --input PATH")


def _schedule(args) -> AlphaSchedule:
    return AlphaSchedule(alpha0=args.alpha0, ratio=args.ratio, count=args.count)


def _write(text: str, output: Optional[str]) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


# Each CSV column of a table and the record attribute it reads.
SWEEP_COLUMNS = {
    name: name for name in ("alpha", "norm_indicator", "norm_residual", "norm_constraint_residual", "singular")
}
GALERKIN_COLUMNS = {
    "step": "step", "n": "n", "alpha": "alpha", "residual": "norm_residual",
    "constraint_residual_n": "norm_constraint_residual",
    "constraint_residual_target": "norm_constraint_residual_target", "singular": "singular",
}


def _csv_value(value) -> str:
    """The CSV rule for every note and cell: None is empty, a bool true/false, floats ``repr``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return ",".join(repr(float(x)) for x in value)
    return str(value)


def _json(value, indent: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it, under the JSON rule:
    non-finite floats are null, arrays and tuples lists.

    ``indent`` is the indentation of the line ``value`` starts on. Strings go
    through the encoder ``json.dumps`` itself uses, numbers through
    ``int.__repr__`` and ``float.__repr__``, as there.
    """
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, np.ndarray):
        items = [float.__repr__(x) if math.isfinite(x) else "null" for x in value.astype(float).tolist()]
        opening, closing = "[", "]"
    elif isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        opening, closing = "[", "]"
    elif isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        opening, closing = "{", "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def _emit(args, source: dict, fields: dict, notes: dict, columns, rows) -> None:
    """Write ``args.command``'s report in the v1 envelope: JSON ``fields`` or CSV ``notes`` and table.

    JSON gains the ``version``, ``command`` and ``source`` keys and is written
    in one pass by :func:`_json`, byte for byte what ``json.dumps`` with
    ``indent=2, sort_keys=True`` writes. CSV starts with the header and one
    ``# key=value`` note each for the command, the source tags and ``notes``,
    leaving out a note whose value is None; then come the ``columns`` line and
    one line per row.
    """
    if args.format == "json":
        envelope = {"version": "finapprox v1", "command": args.command, "source": source, **fields}
        _write(_json(envelope) + "\n", args.output)
    else:
        notes = {"command": args.command, **source, **notes}
        lines = [
            HEADER,
            *(f"# {key}={_csv_value(value)}" for key, value in notes.items() if value is not None),
            ",".join(columns),
            *(",".join(_csv_value(value) for value in row) for row in rows),
        ]
        _write("\n".join(lines) + "\n", args.output)


def _table(records, columns: dict[str, str]) -> tuple[list[dict], list[tuple]]:
    """The JSON ``records`` field and the CSV rows of ``records``, one per record, read by ``columns``."""
    rows = [tuple(getattr(record, attribute) for attribute in columns.values()) for record in records]
    return [dict(zip(columns, row)) for row in rows], rows


def _fields(record, skip: str) -> dict:
    """A dataclass record's fields in declaration order, less ``skip``."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.name != skip}


def _exit_code(records) -> int:
    """The exit code of a sweep, alpha or Galerkin: EXIT_SINGULAR when every step was singular."""
    return EXIT_SINGULAR if all(r.singular for r in records) else EXIT_OK


# A report function takes the parsed arguments, the problem and the scenario's
# subspace family (or None), and returns (fields, notes, columns, rows, exit code):
# the JSON fields and CSV notes beside the envelope, then the CSV table.


def _sweep(args, problem: ProblemInstance, _family) -> tuple:
    report = alpha_sweep(problem, _schedule(args))
    records, rows = _table(report.records, SWEEP_COLUMNS)
    fields = {"schedule": vars(report.schedule), "records": records}
    return fields, {}, SWEEP_COLUMNS, rows, _exit_code(report.records)


def _analyze(args, problem: ProblemInstance, _family) -> tuple:
    if args.tol_decision is not None:
        tols = dataclasses.replace(problem.tols, decision_tol=args.tol_decision)
        problem = dataclasses.replace(problem, tols=tols)
    report = alpha_sweep(problem, _schedule(args))
    decision = decide(report)
    oracle = range_oracle(problem) if problem._operator is not None else None
    agreement: Optional[bool] = None
    if oracle is not None and decision.verdict in (Verdict.SOLVABLE, Verdict.NOT_SOLVABLE):
        agreement = oracle.constrained_solvable == (decision.verdict is Verdict.SOLVABLE)

    records, rows = _table(report.records, SWEEP_COLUMNS)
    fields = {
        "schedule": vars(report.schedule),
        "records": records,
        "verdict": decision.verdict.value,
        "witness": decision.witness,
        "oracle": None if oracle is None else _fields(oracle, skip="control"),
        "agreement": agreement,
    }
    notes = {"verdict": decision.verdict.value, "witness": decision.witness}
    if oracle is not None:
        for name in ("constrained_solvable", "decomposed_solvable", "distance"):
            notes[f"oracle_{name}"] = getattr(oracle, name)
    notes["agreement"] = agreement
    return fields, notes, SWEEP_COLUMNS, rows, _exit_code(report.records)


def _oracle(_args, problem: ProblemInstance, _family) -> tuple:
    fields = _fields(range_oracle(problem), skip="control")
    return {"oracle": fields}, {}, ("key", "value"), fields.items(), EXIT_OK


FAMILIES = {"sine": sine_family, "coordinate": coordinate_family}


def _galerkin(args, problem: ProblemInstance, family: Optional[SubspaceFamily]) -> tuple:
    if args.family:
        family = FAMILIES[args.family](problem.ambient_dim)
    elif family is None:
        raise ValidationError(
            "this problem has no subspace family; pass --family sine|coordinate "
            "or use a scenario that provides one"
        )
    steps = diagonal_steps(count=args.count, max_n=family.max_n, alpha0=args.alpha0, ratio=args.ratio)
    report = galerkin_sweep(problem, family, steps)
    records, rows = _table(report.records, GALERKIN_COLUMNS)
    fields = {"family": family.description, "records": records}
    return fields, {"family": family.description}, GALERKIN_COLUMNS, rows, _exit_code(report.records)


def _validate(_args, problem: ProblemInstance, _family) -> tuple:
    fields = {
        "ambient_dim": problem.ambient_dim,
        "control_dim": problem.control_dim,
        "operator_present": problem._operator is not None,
        **_fields(problem.validation, skip="operator_norm"),
    }
    return fields, {}, ("key", "value"), fields.items(), EXIT_OK


# Each report command: its help, its report function, and whether it takes the alpha schedule.
REPORTS = {
    "analyze": ("sweep, verdict, witness, and oracle cross-check", _analyze, True),
    "sweep": ("regularized solves along the alpha schedule", _sweep, True),
    "oracle": ("range-criterion verdicts from the operator", _oracle, False),
    "galerkin": ("diagonal sweep over a nested subspace family", _galerkin, True),
    "validate": ("structural checks and defect norms", _validate, False),
}


def _report(args) -> int:
    """Load the problem, compute the command's report, write it, and return its exit code."""
    problem, family, source = _load(args)
    fields, notes, columns, rows, code = args.report(args, problem, family)
    _emit(args, source, fields, notes, columns, rows)
    return code


def _cmd_scenarios_list(args) -> int:
    lines = []
    for name in scenario_names():
        lines.append(name)
        lines.append(f"  expected verdict: {EXPECTED_VERDICTS[name]}")
        lines.append(f"  parameters: {SCENARIO_PARAMS[name]}")
        lines.append(f"  {SCENARIO_DESCRIPTIONS[name]}")
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_export(args) -> int:
    if not args.scenario:
        raise ValidationError("export needs --scenario NAME")
    problem, _family, _source = _load(args)
    if args.output in (None, "-"):
        raise ValidationError("export needs --output PATH for the problem file")
    save_problem(problem, args.output)
    if args.verbose:
        print(f"INFO finapprox: wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finapprox",
        description=(
            "Decide and construct finite-approximate solutions of constrained "
            "linear operator equations."
        ),
        epilog="exit codes: 0 ok, 2 bad input, 3 all alphas singular, 4 internal error",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, report, scheduled) in REPORTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", help="bundled scenario name (see scenarios-list)")
        p.add_argument("--param", action="append", metavar="K=V", help="scenario parameter, repeatable")
        p.add_argument("--input", help="path to a JSON problem file")
        if scheduled:
            p.add_argument("--alpha0", type=float, default=1.0, help="first alpha (default 1.0)")
            p.add_argument("--ratio", type=float, default=0.1, help="geometric ratio (default 0.1)")
            p.add_argument("--count", type=int, default=8, help="number of steps (default 8)")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
        p.set_defaults(func=_report, report=report)
    sub.choices["analyze"].add_argument(
        "--tol-decision", type=float, default=None, help="override the relative decision threshold"
    )
    sub.choices["galerkin"].add_argument(
        "--family", choices=tuple(FAMILIES), default=None, help="family for problem-file inputs"
    )

    p_list = sub.add_parser("scenarios-list", help="catalog of bundled scenarios")
    p_list.add_argument("--output", default=None, help="output path (default stdout)")
    p_list.set_defaults(func=_cmd_scenarios_list)

    p_export = sub.add_parser("export", help="write a scenario as a JSON problem file")
    p_export.add_argument("--scenario", required=True, help="bundled scenario name")
    p_export.add_argument("--param", action="append", metavar="K=V", help="scenario parameter")
    p_export.add_argument("--output", required=True, help="problem file path")
    p_export.set_defaults(func=_cmd_export, input=None)

    return parser


# One parser per process: building it costs more than a small request.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ProblemFileError, OSError) as exc:  # OSError: an unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
