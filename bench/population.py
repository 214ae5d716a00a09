"""Seeded population of dense problem files with ground truth known by construction.

The generator uses numpy only, never the program under test: the program sees
nothing but the JSON problem files written here. The ground truth stays in
the returned manifest.

Every draw comes from ``numpy.random.default_rng(seed)``, so one seed gives
one population byte for byte. Each property below is assigned by an exact
quota that is then shuffled, so the mix does not drift from seed to seed:

- kind: full rank (SOLVABLE), rank deficient with a reachable right-hand
  side (SOLVABLE), rank deficient with an unreachable one (NOT_SOLVABLE),
  a constraint range meeting the Gram kernel (SINGULAR at every alpha), and
  a raw non-projector constraint on a full-rank operator (SOLVABLE, run
  through the generic path);
- conditioning: half draw singular values in [0.5, 1.5] with a
  transversality floor of 0.05, half draw condition numbers up to 1e6 with a
  floor of 1e-3;
- scale: a quarter multiply the operator by c, log-uniform in [1e-4, 1e2];
- source: a tenth are Gram-only files (no operator, so no oracle runs);
- dimension: every value from 2 to 64 equally often.

Scaled and ill-conditioned problems are kept as drawn. They are where the
known INCONCLUSIVE defect of the absolute alpha schedule shows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.linalg

MIN_DIM = 2
MAX_DIM = 64
KIND_SHARES = {
    "full_rank": 0.30,
    "deficient_reachable": 0.25,
    "deficient_unreachable": 0.25,
    "singular": 0.10,
    "raw_full_rank": 0.10,
}
ILL_SHARE = 0.5
SCALED_SHARE = 0.25
GRAM_ONLY_SHARE = 0.10
MAX_CONDITION = 1e6
WELL_FLOOR = 0.05
ILL_FLOOR = 1e-3
SCALE_RANGE = (-4.0, 2.0)


def _quota(rng, count, shares):
    """Labels in exact proportion to ``shares`` (largest remainders), shuffled."""
    raw = {label: share * count for label, share in shares.items()}
    counts = {label: int(value) for label, value in raw.items()}
    leftover = count - sum(counts.values())
    for label in sorted(raw, key=lambda k: raw[k] - counts[k], reverse=True)[:leftover]:
        counts[label] += 1
    labels = [label for label, n in counts.items() for _ in range(n)]
    rng.shuffle(labels)
    return labels


def _flags(rng, count, share):
    return [label == "yes" for label in _quota(rng, count, {"yes": share, "no": 1.0 - share})]


def _orthonormal(rng, dim, k):
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q[:, :k]


def _singular_values(rng, rank, ill):
    if not ill:
        return rng.uniform(0.5, 1.5, size=rank)
    condition = 10.0 ** rng.uniform(0.0, np.log10(MAX_CONDITION))
    values = 10.0 ** rng.uniform(-np.log10(condition), 0.0, size=rank)
    values[0] = 1.0
    if rank > 1:
        values[1] = 1.0 / condition
    return values


def _operator(rng, dim, dim_u, rank, ill):
    u = _orthonormal(rng, dim, rank)
    v = _orthonormal(rng, dim_u, rank)
    return u @ (_singular_values(rng, rank, ill)[:, None] * v.T)


def _transversal_basis(rng, operator, floor):
    """Basis vectors whose span meets the Gram kernel only at zero.

    Keeps the smallest eigenvalue of B^T (L L^T) B at least ``floor`` for an
    orthonormal basis B of the span. Gaussian directions are tried first;
    after that the draws come from the operator's range, where the floor is
    easiest to meet.
    """
    dim = operator.shape[0]
    gram_matrix = operator @ operator.T
    top = min(3, int(np.linalg.matrix_rank(operator, tol=1e-10)))
    for attempt in range(400):
        rank = int(rng.integers(1, top + 1))
        if attempt < 200:
            vectors = rng.standard_normal((dim, rank))
        else:
            vectors = operator @ rng.standard_normal((operator.shape[1], rank))
        basis, _ = np.linalg.qr(vectors)
        if np.linalg.eigvalsh(basis.T @ gram_matrix @ basis)[0] >= floor:
            return vectors
    raise RuntimeError("no transversal constraint found in 400 draws")


def _unit(v):
    return v / np.linalg.norm(v)


def _reachable(rng, operator):
    return _unit(operator @ rng.standard_normal(operator.shape[1]))


def _unreachable(rng, operator, kernel):
    base = operator @ rng.standard_normal(operator.shape[1])
    direction = _unit(kernel @ rng.standard_normal(kernel.shape[1]))
    return _unit(base + rng.uniform(0.3, 1.0) * max(1.0, np.linalg.norm(base)) * direction)


def _draw(rng, kind, ill, dim):
    """One problem of ``kind``: (operator, constraint type, constraint data, rhs, truth)."""
    floor = ILL_FLOOR if ill else WELL_FLOOR
    if kind in ("full_rank", "raw_full_rank"):
        dim_u = int(rng.integers(dim, MAX_DIM + 1))
        operator = _operator(rng, dim, dim_u, dim, ill)
        rhs = _unit(rng.standard_normal(dim))
        if kind == "raw_full_rank":
            k = int(rng.integers(1, 4))
            raw = rng.standard_normal((dim, k)) @ rng.standard_normal((k, dim)) / dim
            return operator, "raw", raw, rhs, ("SOLVABLE", True)
        return operator, "projector_basis", _transversal_basis(rng, operator, floor), rhs, ("SOLVABLE", True)

    dim_u = int(rng.integers(1, MAX_DIM + 1))
    rank = int(rng.integers(1, max(1, min(dim - 1, dim_u)) + 1))
    operator = _operator(rng, dim, dim_u, rank, ill)
    kernel = scipy.linalg.null_space(operator.T, rcond=1e-10)
    if kind == "deficient_reachable":
        return operator, "projector_basis", _transversal_basis(rng, operator, floor), _reachable(rng, operator), ("SOLVABLE", True)
    if kind == "deficient_unreachable":
        rhs = _unreachable(rng, operator, kernel)
        return operator, "projector_basis", _transversal_basis(rng, operator, floor), rhs, ("NOT_SOLVABLE", False)
    # singular: the constraint's range holds a unit vector of the Gram kernel,
    # so alpha (I - P) + L L^T annihilates it at every alpha
    kernel_vector = _unit(kernel @ rng.standard_normal(kernel.shape[1]))
    extra = int(rng.integers(0, min(2, dim - 1) + 1))
    basis = np.column_stack([kernel_vector, rng.standard_normal((dim, extra))])
    if rng.integers(0, 2):
        return operator, "projector_basis", basis, _reachable(rng, operator), ("SINGULAR", True)
    return operator, "projector_basis", basis, _unreachable(rng, operator, kernel), ("SINGULAR", False)


def generate(seed: int, count: int, directory: Path) -> list[dict]:
    """Write ``count`` problem files into ``directory`` and return their manifest.

    Each manifest entry holds the file path, the expected verdict, whether the
    right-hand side is reachable (the oracle's ground truth), the right-hand
    side norm, and the properties the problem was drawn with.
    """
    rng = np.random.default_rng(seed)
    kinds = _quota(rng, count, KIND_SHARES)
    ill = _flags(rng, count, ILL_SHARE)
    scaled = _flags(rng, count, SCALED_SHARE)
    gram_only = _flags(rng, count, GRAM_ONLY_SHARE)
    dims = [MIN_DIM + i % (MAX_DIM - MIN_DIM + 1) for i in range(count)]
    rng.shuffle(dims)
    manifest = []
    for index in range(count):
        operator, ctype, cdata, rhs, (verdict, solvable) = _draw(rng, kinds[index], ill[index], dims[index])
        scale = 10.0 ** rng.uniform(*SCALE_RANGE) if scaled[index] else 1.0
        operator = scale * operator
        payload: dict = {"dimH": operator.shape[0], "dimU": operator.shape[1]}
        if gram_only[index]:
            gram_matrix = operator @ operator.T
            payload["Gamma"] = ((gram_matrix + gram_matrix.T) / 2.0).tolist()
        else:
            payload["L"] = operator.tolist()
        if ctype == "projector_basis":
            payload["constraint"] = {"type": ctype, "data": cdata.T.tolist()}
        else:
            payload["constraint"] = {"type": ctype, "data": cdata.tolist()}
        payload["h"] = rhs.tolist()
        path = directory / f"problem_{index:05d}.json"
        path.write_text(json.dumps(payload))
        manifest.append(
            {
                "path": str(path),
                "kind": kinds[index],
                "verdict": verdict,
                "solvable": solvable,
                "projector": ctype == "projector_basis",
                "rhs_norm": float(np.linalg.norm(rhs)),
                "ill_conditioned": ill[index],
                "scale": scale,
                "gram_only": gram_only[index],
            }
        )
    return manifest


def verdict_held(entry: dict) -> bool:
    """Whether a wrong verdict on this problem fails the request.

    A wrong verdict is a definite one that contradicts the truth, or any
    other answer to a SINGULAR truth. The program gives none on
    well-conditioned, unscaled problems. Elsewhere it now and then answers
    NOT_SOLVABLE to an ill-conditioned problem whose right-hand side is
    reachable, or INCONCLUSIVE to a scaled SINGULAR one, so there wrong
    verdicts are counted.
    """
    return not entry["ill_conditioned"] and entry["scale"] == 1.0


def held_to_every_check(entry: dict) -> bool:
    """Whether an INCONCLUSIVE answer or a broken identity bound fails the request.

    Well-conditioned, unscaled problems whose right-hand side is reachable or
    whose constraint is singular get a definite verdict within the identity
    bounds. Elsewhere the absolute alpha schedule is known to answer
    INCONCLUSIVE and to break those bounds, so there they are counted.
    """
    return verdict_held(entry) and entry["kind"] != "deficient_unreachable"
