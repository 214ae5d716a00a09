"""Spans recorded around the program's public calls, from outside the program.

A :class:`Tracer` replaces public functions with wrappers that record one span
per call: name, start, end, parent span, the computed cubic work of a dense
linear-algebra call, and an optional outcome label. Nothing under ``src/``
knows about it. Spans stay in memory until :meth:`Tracer.dump`.

:func:`layer_metrics` turns a span list into per-layer figures: calls, busy
time (summed span durations) and self time (duration minus child spans).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# Dense linear-algebra entry points, by namespace. Wrapping happens before
# finapprox is imported, so ``from scipy.linalg import ...`` binds a wrapper.
LAPACK = {
    "numpy.linalg": ("svd", "eigh", "eigvalsh", "solve", "lstsq", "qr"),
    "scipy.linalg": ("svd", "eigh", "eigvalsh", "solve", "lstsq", "qr", "null_space", "cho_factor", "lu_factor"),
}
LAPACK_NAMES = tuple(dict.fromkeys(name for names in LAPACK.values() for name in names))

# Public finapprox functions that get a span, by layer (module).
LAYERS = {
    "cli": ("main",),
    "problemfile": ("load_problem", "problem_from_dict"),
    "scenarios": ("build_scenario",),
    "hilbert": (
        "make_problem",
        "make_projector",
        "orthonormal_columns",
        "projector_defects",
        "gram",
        "gram_representable",
    ),
    "galerkin": ("family_projector", "galerkin_sweep"),
    "resolvent": ("regularized_operator", "solve_regularized"),
    "analyzer": ("alpha_sweep", "decide", "range_oracle"),
}


def _singular_label(result):
    return "singular" if type(result).__name__ == "SingularSystem" else None


def _verdict_label(result):
    return result.verdict.value


OUTCOMES = {
    "resolvent.solve_regularized": _singular_label,
    "analyzer.decide": _verdict_label,
}


def _cubic_work(args) -> int:
    """m * n * min(m, n) of the first matrix argument, the size of its factorization."""
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) < 2:
        return 0
    m, n = int(shape[-2]), int(shape[-1])
    return m * n * min(m, n)


class Tracer:
    """Span recorder for one process."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, cubic work, outcome label]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, cubic: bool = False):
        outcome = OUTCOMES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, _cubic_work(args) if cubic else 0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if outcome is not None:
                span[5] = outcome(result)
            return result

        return traced

    def install_lapack(self) -> None:
        """Wrap the dense linear-algebra entry points; call before importing finapprox."""
        import numpy.linalg
        import scipy.linalg

        for module_name, names in LAPACK.items():
            module = sys.modules[module_name]
            for name in names:
                setattr(module, name, self.wrap(f"lapack.{name}", getattr(module, name), cubic=True))

    def install_finapprox(self) -> None:
        """Wrap the public layer functions wherever a finapprox module binds them.

        ``cli`` imports ``alpha_sweep`` from ``analyzer``, ``galerkin`` imports
        ``solve_regularized`` from ``resolvent``, and so on: every module
        attribute bound to a wrapped function is rebound, so calls made
        through any module are caught.
        """
        import finapprox.cli  # noqa: F401  (imports every layer)

        replaced = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"finapprox.{layer}"]
            for name in names:
                fn = getattr(module, name)
                replaced[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "finapprox" and not module_name.startswith("finapprox."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path) -> None:
        with open(path, "w") as out:
            json.dump(self.spans, out)


def layer_metrics(spans: list) -> dict:
    """Per-name calls, busy time and self time, plus lapack work and outcome counts."""
    child_time = defaultdict(float)
    for _name, start, end, parent, _work, _label in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    labels = defaultdict(int)
    cubic_work = 0
    for index, (name, start, end, _parent, work, label) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - child_time[index]
        cubic_work += work
        if label is not None:
            labels[(name, label)] += 1
    out = {}
    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = busy[key]
            out[f"{key}.self_s"] = own[key]
    for name in LAPACK_NAMES:
        out[f"lapack.{name}.calls"] = calls[f"lapack.{name}"]
        out[f"lapack.{name}.s"] = busy[f"lapack.{name}"]
    out["lapack.cubic_work"] = cubic_work
    out["resolvent.singular_reports"] = labels[("resolvent.solve_regularized", "singular")]
    out["analyzer.decide.inconclusive"] = labels[("analyzer.decide", "INCONCLUSIVE")]
    return out


def root_durations(spans: list) -> list[float]:
    """Durations of the spans no other span encloses (one per request)."""
    return [end - start for _name, start, end, parent, _work, _label in spans if parent < 0]


def span_problems(spans: list) -> list[str]:
    """Ways the span tree fails to account for time; empty when it is sound.

    Every span must lie inside its parent and keep a self time of at least
    zero (children that overlap would count time twice), and the self times
    of all spans must add up to the durations of the root spans.
    """
    problems = []
    child_time = defaultdict(float)
    for index, (name, start, end, parent, _work, _label) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            if start < spans[parent][1] or end > spans[parent][2]:
                problems.append(f"span {index} ({name}) lies outside its parent {spans[parent][0]}")
    own = [end - start - child_time[i] for i, (_n, start, end, _p, _w, _l) in enumerate(spans)]
    problems += [f"span {i} ({spans[i][0]}) has self time {t!r} s" for i, t in enumerate(own) if t < -1e-9]
    self_total = math.fsum(own)
    root_total = math.fsum(root_durations(spans))
    if abs(self_total - root_total) > 1e-6 * max(root_total, 1e-3):
        problems.append(f"self times add up to {self_total!r} s, root spans to {root_total!r} s")
    return problems
