"""JSON problem files.

A problem file is a JSON object with the keys

    dimH        ambient dimension, positive integer
    dimU        control dimension, positive integer
    L           optional operator, dimH x dimU nested arrays
    Gamma       optional gram matrix, dimH x dimH nested arrays
    constraint  {"type": "projector_basis", "data": [vec, ...]} or
                {"type": "raw", "data": dimH x dimH matrix}
    h           right-hand side, length dimH
    tolerances  optional object setting some of the three Tolerances fields
                (rank_tol, singular_tol, decision_tol) by name

At least one of L and Gamma must be present. A ``tolerances`` entry that
names any other field is refused. The ``tolerances`` set ``problem.tols``
and nothing else: they steer the verdict, while the constraint is the span
of the vectors the file states, built with the fixed threshold of
:func:`~finapprox.hilbert.make_projector` whatever ``rank_tol`` says.
Numbers must be finite; floats are written with shortest round-trip
precision so a saved file reloads to bit-identical values.

Files are UTF-8. :func:`load_problem` parses them with orjson, and only a
file orjson refuses goes to the stdlib ``json`` decoder, which then reports
why; :func:`save_problem` writes with ``json.dumps``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Union

import numpy as np

from .hilbert import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    Projector,
    Tolerances,
    ValidationError,
    _int_at_least,
    as_operator,
    as_vector,
    make_problem,
    make_projector,
)

__all__ = ["ProblemFileError", "load_problem", "save_problem", "problem_to_dict", "problem_from_dict"]

_TOLERANCE_FIELDS = tuple(f.name for f in dataclasses.fields(Tolerances))


class ProblemFileError(ValueError):
    """A problem file could not be parsed or failed validation."""


def _reject_constant(value: str):
    raise ProblemFileError(f"non-finite number {value} is not allowed in a problem file")


def _require(mapping: dict, key: str):
    if key not in mapping:
        raise ProblemFileError(f"problem file is missing required field {key!r}")
    return mapping[key]


def _positive_int(value, field: str) -> int:
    if not _int_at_least(value, 1):
        raise ProblemFileError(f"field {field!r} must be a positive integer, got {value!r}")
    return value


def problem_from_dict(data: dict) -> ProblemInstance:
    """Build a validated problem instance from a parsed problem-file object."""
    if not isinstance(data, dict):
        raise ProblemFileError(f"problem file must hold a JSON object, got {type(data).__name__}")
    known = {"dimH", "dimU", "L", "Gamma", "constraint", "h", "tolerances"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ProblemFileError(f"problem file has unknown fields {unknown}")

    dim_h = _positive_int(_require(data, "dimH"), "dimH")
    dim_u = _positive_int(_require(data, "dimU"), "dimU")

    overrides = data.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ProblemFileError("field 'tolerances' must be an object")
    bad = sorted(set(overrides) - set(_TOLERANCE_FIELDS))
    if bad:
        raise ProblemFileError(
            f"field 'tolerances' has unknown entries {bad}; known: {list(_TOLERANCE_FIELDS)}"
        )
    try:  # the raw values meet the real-parameter rule first, so a bool or string is refused
        tols = dataclasses.replace(
            Tolerances(**overrides), **{k: float(v) for k, v in overrides.items()}
        )
    except (ValueError, OverflowError) as exc:
        raise ProblemFileError(f"field 'tolerances' is invalid: {exc}") from exc

    try:  # the numeric fields get the library's own checks, named by field
        operator = as_operator(data["L"], (dim_h, dim_u), "field 'L'") if "L" in data else None
        gram_matrix = as_operator(data["Gamma"], (dim_h, dim_h), "field 'Gamma'") if "Gamma" in data else None
        if operator is None and gram_matrix is None:
            raise ProblemFileError("problem file needs at least one of 'L' and 'Gamma'")

        constraint_obj = _require(data, "constraint")
        if not isinstance(constraint_obj, dict) or "type" not in constraint_obj or "data" not in constraint_obj:
            raise ProblemFileError("field 'constraint' must be an object with 'type' and 'data'")
        ctype = constraint_obj["type"]
        cdata = constraint_obj["data"]
        if ctype == "projector_basis":
            if not isinstance(cdata, list):
                raise ProblemFileError("field 'constraint.data' must be a list of vectors")
            try:
                constraint: Union[Projector, np.ndarray] = make_projector(cdata, dim=dim_h)
            except ValidationError as exc:
                raise ProblemFileError(f"field 'constraint.data' is invalid: {exc}") from exc
        elif ctype == "raw":
            constraint = as_operator(cdata, (dim_h, dim_h), "field 'constraint.data'")
        else:
            raise ProblemFileError(
                f"field 'constraint.type' must be 'projector_basis' or 'raw', got {ctype!r}"
            )

        rhs = as_vector(_require(data, "h"), dim_h, "field 'h'")
    except ValidationError as exc:
        raise ProblemFileError(str(exc)) from exc

    try:
        return make_problem(
            operator=operator,
            gram_matrix=gram_matrix,
            constraint=constraint,
            rhs=rhs,
            control_dim=dim_u,
            tols=tols,
        )
    except ValidationError as exc:
        raise ProblemFileError(f"problem file failed validation: {exc}") from exc


def load_problem(path) -> ProblemInstance:
    """Load and validate a problem file.

    orjson reads the file's bytes. A document it refuses (``NaN``,
    ``Infinity``, a number beyond the float range, bytes that are not UTF-8,
    a byte order mark, bad syntax) goes as UTF-8 text to the stdlib decoder,
    whose error is the one reported. Both give the same floats bit for bit;
    an integer beyond 64 bits arrives as its nearest float, not an int.

    Parse errors carry the line and column from the JSON decoder; validation
    errors name the offending field.
    """
    import orjson  # here, not at module level: its import is ~6 ms that --scenario requests skip

    raw = Path(path).read_bytes()
    try:
        try:
            data = orjson.loads(raw)
        except orjson.JSONDecodeError:
            data = _stdlib_loads(raw, path)
        return problem_from_dict(data)
    except RecursionError as exc:
        raise ProblemFileError(f"problem file {path} is nested too deeply") from exc


def _stdlib_loads(raw: bytes, path):
    """``raw`` decoded as UTF-8 and parsed by ``json.loads``, which refuses non-finite constants."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"problem file {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"problem file {path} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc


def problem_to_dict(problem: ProblemInstance) -> dict:
    """Problem-file object for an instance; inverse of :func:`problem_from_dict`."""
    out: dict = {"dimH": problem.ambient_dim, "dimU": problem.control_dim}
    if problem.operator is not None:
        out["L"] = problem.operator.tolist()
    out["Gamma"] = problem.gram.tolist()
    kind = "projector_basis" if isinstance(problem.constraint, Projector) else "raw"
    out["constraint"] = {"type": kind, "data": problem.constraint_rows.tolist()}
    out["h"] = problem.rhs.tolist()
    if problem.tols != DEFAULT_TOLERANCES:
        defaults = dataclasses.asdict(DEFAULT_TOLERANCES)
        out["tolerances"] = {
            k: v for k, v in dataclasses.asdict(problem.tols).items() if v != defaults[k]
        }
    return out


def save_problem(problem: ProblemInstance, path) -> None:
    """Write a problem file that reloads to the same instance.

    Floats are serialized with shortest round-trip precision (at least 17
    significant digits when needed), so operators survive the round trip
    exactly.
    """
    payload = json.dumps(problem_to_dict(problem), indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n")
