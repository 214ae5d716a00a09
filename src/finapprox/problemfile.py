"""JSON problem files.

A problem file is a JSON object with the keys

    dimH        ambient dimension, positive integer
    dimU        control dimension, positive integer
    L           optional operator, dimH x dimU nested arrays
    Gamma       optional gram matrix, dimH x dimH nested arrays
    constraint  {"type": "projector_basis", "data": [vec, ...]} or
                {"type": "raw", "data": dimH x dimH matrix}
    h           right-hand side, length dimH
    tolerances  optional object overriding tolerance fields by name

At least one of L and Gamma must be present. Numbers must be finite; floats
are written with shortest round-trip precision so a saved file reloads to
bit-identical values.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .hilbert import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    Projector,
    Tolerances,
    ValidationError,
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
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ProblemFileError(f"field {field!r} must be a positive integer, got {value!r}")
    return value


def _matrix(value, shape: tuple, field: str) -> np.ndarray:
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"field {field!r} is not a numeric matrix: {exc}") from exc
    if m.shape != shape:
        raise ProblemFileError(f"field {field!r} has shape {m.shape}, expected {shape}")
    if not np.all(np.isfinite(m)):
        raise ProblemFileError(f"field {field!r} contains non-finite entries")
    return m


def problem_from_dict(data: dict, tols: Optional[Tolerances] = None) -> ProblemInstance:
    """Build a validated problem instance from a parsed problem-file object."""
    if not isinstance(data, dict):
        raise ProblemFileError(f"problem file must hold a JSON object, got {type(data).__name__}")
    known = {"dimH", "dimU", "L", "Gamma", "constraint", "h", "tolerances"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ProblemFileError(f"problem file has unknown fields {unknown}")

    dim_h = _positive_int(_require(data, "dimH"), "dimH")
    dim_u = _positive_int(_require(data, "dimU"), "dimU")

    if tols is None:
        overrides = data.get("tolerances", {})
        if not isinstance(overrides, dict):
            raise ProblemFileError("field 'tolerances' must be an object")
        bad = sorted(set(overrides) - set(_TOLERANCE_FIELDS))
        if bad:
            raise ProblemFileError(
                f"field 'tolerances' has unknown entries {bad}; known: {list(_TOLERANCE_FIELDS)}"
            )
        try:
            tols = Tolerances(**{k: float(v) for k, v in overrides.items()})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProblemFileError(f"field 'tolerances' is invalid: {exc}") from exc

    operator = _matrix(data["L"], (dim_h, dim_u), "L") if "L" in data else None
    gram_matrix = _matrix(data["Gamma"], (dim_h, dim_h), "Gamma") if "Gamma" in data else None
    if operator is None and gram_matrix is None:
        raise ProblemFileError("problem file needs at least one of 'L' and 'Gamma'")

    constraint_obj = _require(data, "constraint")
    if not isinstance(constraint_obj, dict) or "type" not in constraint_obj or "data" not in constraint_obj:
        raise ProblemFileError("field 'constraint' must be an object with 'type' and 'data'")
    ctype = constraint_obj["type"]
    cdata = constraint_obj["data"]
    if ctype == "projector_basis":
        try:
            vectors = [np.asarray(v, dtype=float) for v in cdata]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProblemFileError(f"field 'constraint.data' is not a list of vectors: {exc}") from exc
        for i, v in enumerate(vectors):
            if v.shape != (dim_h,):
                raise ProblemFileError(
                    f"constraint basis vector {i} has shape {v.shape}, expected ({dim_h},)"
                )
            if not np.all(np.isfinite(v)):
                raise ProblemFileError(f"constraint basis vector {i} contains non-finite entries")
        try:
            constraint: Union[Projector, np.ndarray] = make_projector(vectors, dim=dim_h, tols=tols)
        except ValidationError as exc:
            raise ProblemFileError(f"field 'constraint' is invalid: {exc}") from exc
    elif ctype == "raw":
        constraint = _matrix(cdata, (dim_h, dim_h), "constraint.data")
    else:
        raise ProblemFileError(
            f"field 'constraint.type' must be 'projector_basis' or 'raw', got {ctype!r}"
        )

    h_value = _require(data, "h")
    try:
        rhs = np.asarray(h_value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"field 'h' is not a numeric vector: {exc}") from exc
    if rhs.shape != (dim_h,):
        raise ProblemFileError(f"field 'h' has shape {rhs.shape}, expected ({dim_h},)")
    if not np.all(np.isfinite(rhs)):
        raise ProblemFileError("field 'h' contains non-finite entries")

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


def load_problem(path, tols: Optional[Tolerances] = None) -> ProblemInstance:
    """Load and validate a problem file.

    Parse errors carry the line and column from the JSON decoder; validation
    errors name the offending field.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"problem file {path} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    return problem_from_dict(data, tols=tols)


def problem_to_dict(problem: ProblemInstance) -> dict:
    """Problem-file object for an instance; inverse of :func:`problem_from_dict`."""
    out: dict = {"dimH": problem.ambient_dim, "dimU": problem.control_dim}
    if problem.operator is not None:
        out["L"] = problem.operator.tolist()
    out["Gamma"] = problem.gram.tolist()
    if isinstance(problem.constraint, Projector):
        out["constraint"] = {
            "type": "projector_basis",
            "data": problem.constraint.basis.T.tolist(),
        }
    else:
        out["constraint"] = {"type": "raw", "data": problem.constraint_matrix.tolist()}
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
