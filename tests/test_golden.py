"""Golden reports: every CLI report of the small bundled scenarios, and the
scenario catalog, byte for byte.

Each case runs one command on one scenario and compares stdout with
``tests/golden/<scenario>.<command>.<format>``; ``tests/golden/exit_codes.json``
holds the exit code of each case. To regenerate after an intended output
change, run ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from finapprox.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = (
    "diagonal_solvable",
    "diagonal_unsolvable",
    "truncated_shift",
    "rank_deficient_gamma",
    "nilpotent_pi",
)
REPORTS = ("sweep", "analyze", "oracle", "galerkin")


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for scenario in SCENARIOS:
        for command in REPORTS:
            extra = ["--family", "coordinate"] if command == "galerkin" else []
            for fmt in ("csv", "json"):
                argv = [command, "--scenario", scenario, *extra, "--format", fmt]
                cases.append((f"{scenario}.{command}.{fmt}", argv))
        cases.append((f"{scenario}.validate.csv", ["validate", "--scenario", scenario]))
        cases.append(
            (f"{scenario}.validate.json", ["validate", "--scenario", scenario, "--format", "json"])
        )
    cases.append(("scenarios-list.txt", ["scenarios-list"]))
    return cases


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,argv", _cases(), ids=[name for name, _ in _cases()])
def test_golden_report(name, argv):
    code, out = _run(argv)
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / name).read_text()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in _cases():
        codes[name], out = _run(argv)
        (GOLDEN / name).write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
