"""The README's Python examples run, its scenario table matches the catalog, its
command-line section names every option, its report table matches the golden reports,
and the benchmark's tracer finds every name it wraps."""

import argparse
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from finapprox import EXPECTED_VERDICTS, scenario_names
from finapprox.cli import REPORTS, build_parser

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    namespace: dict = {}
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), namespace)
    if "decision" in namespace:
        # diagonal_unsolvable reaches the witness line
        assert namespace["decision"].verdict.value == "NOT_SOLVABLE"
        assert "v" in namespace


def test_readme_scenario_table_matches_catalog():
    """Each row of "Bundled scenarios" states the catalog's expected verdict, and
    every catalog scenario has a row."""
    section = README.split("## Bundled scenarios", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)`[^|]*\| (\w+) \|", section, re.MULTILINE)
    assert rows
    assert {name: verdict for name, verdict in rows} == EXPECTED_VERDICTS
    assert sorted(name for name, _ in rows) == list(scenario_names())


def test_readme_documents_every_cli_option():
    """Each long option of the parser and of every subcommand appears in "Command line"."""
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    parser = build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    options = {
        option
        for p in parsers
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert options
    assert sorted(o for o in options if not re.search(rf"{o}(?![\w-])", section)) == []


ENVELOPE_KEYS = {"version", "command", "source"}
SOURCE_NOTES = {"command", "scenario", "params", "input"}


def test_readme_report_table_matches_golden_reports():
    """Each row of the "Report formats" table gives its command's JSON top-level keys,
    CSV notes (in order) and CSV columns as every golden report of that command has them;
    the ``key,value`` rows are the fields of the JSON report, or of its one object."""
    section = README.split("## Report formats", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \|(.*)\|(.*)\|(.*)\|$", section, re.MULTILINE)
    table = {command: [re.findall(r"`([^`]+)`", cell) for cell in cells] for command, *cells in rows}
    assert list(table) == list(REPORTS)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for command, (keys, notes, (columns,)) in table.items():
        cases = [name[: -len(".csv")] for name in codes if name.endswith(f".{command}.csv") and codes[name] != 2]
        assert cases
        seen = set()
        for case in cases:
            report = json.loads((GOLDEN / f"{case}.json").read_text())
            assert set(report) == ENVELOPE_KEYS | set(keys), case
            lines = (GOLDEN / f"{case}.csv").read_text().splitlines()
            written = [line[2:].split("=", 1)[0] for line in lines[1:] if line.startswith("# ")]
            own = [note for note in written if note not in SOURCE_NOTES]
            assert own == [note for note in notes if note in own], case
            seen.update(own)
            assert lines[1 + len(written)] == columns, case
            if columns == "key,value":
                fields = report[keys[0]] if len(keys) == 1 else report
                written_keys = {line.split(",", 1)[0] for line in lines[2 + len(written):]}
                assert written_keys == set(fields) - ENVELOPE_KEYS, case
        assert seen == set(notes), command


def test_tracer_layers_resolve():
    """bench/tracing.py wraps each LAYERS name by getattr on its finapprox module."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"finapprox.{layer}"), name, None))
    ]
    assert missing == []
