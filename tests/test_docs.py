"""The README's Python examples run, and the benchmark's tracer finds every name it wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)


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
