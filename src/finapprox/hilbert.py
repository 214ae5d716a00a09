"""Finite-coordinate Hilbert space primitives.

Vectors are 1-D float64 arrays, operators are 2-D float64 arrays. The types
here bundle them with the structure the rest of the library relies on:
orthogonal projectors stored as orthonormal bases, Gram operators with their
factorability diagnostics, problem spectra, and validated problem instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "ValidationError",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "Projector",
    "ProjectorReport",
    "RepresentabilityReport",
    "ValidationRecord",
    "Spectrum",
    "ProblemInstance",
    "as_vector",
    "as_operator",
    "orthonormal_columns",
    "make_projector",
    "projector_defects",
    "gram",
    "gram_representable",
    "make_problem",
]


class ValidationError(ValueError):
    """An operator, projector, or problem instance failed its structural checks."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across construction, solving, and decisions.

    Every tolerance is applied relative to the natural scale of the quantity
    it guards (Frobenius norm, right-hand-side norm, largest singular value)
    whenever such a scale exists.

    Attributes
    ----------
    tol_ortho : orthonormality defect allowed in a projector basis.
    tol_proj : idempotency/symmetry defect allowed before a square matrix
        stops counting as an orthogonal projector.
    tol_sym : symmetry defect allowed in a supplied Gram operator.
    tol_psd : negative spectrum allowed in a supplied Gram operator.
    tol_gram : mismatch allowed between a supplied operator's Gram product
        and a supplied Gram operator.
    rank_tol : relative singular-value threshold for rank decisions.
    singular_tol : relative smallest-singular-value threshold below which a
        linear system is reported singular instead of solved.
    id_tol : relative defect allowed in the algebraic identities every
        regularized solve must satisfy.
    decision_tol : relative threshold steering the solvability verdict.
    oracle_tol : relative residual threshold used by the range oracle.
    """

    tol_ortho: float = 1e-10
    tol_proj: float = 1e-10
    tol_sym: float = 1e-10
    tol_psd: float = 1e-10
    tol_gram: float = 1e-10
    rank_tol: float = 1e-10
    singular_tol: float = 1e-12
    id_tol: float = 1e-9
    decision_tol: float = 1e-6
    oracle_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and np.isfinite(value) and value > 0):
                raise ValidationError(f"tolerance {name} must be a positive finite number, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def as_vector(x, dim: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValidationError(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


def as_operator(a, shape: Optional[tuple] = None, name: str = "operator") -> np.ndarray:
    """Coerce to a finite 2-D float array, optionally checking its shape."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be two-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    if shape is not None and m.shape != shape:
        raise ValidationError(f"{name} has shape {m.shape}, expected {shape}")
    return m


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector stored as its orthonormal basis Q alone.

    The projector is P = Q Q^T and is applied as Q (Q^T x). ``rank`` and
    ``dim`` are read from the basis shape; ``matrix`` builds the dense n x n
    form on request, for the few callers that need it.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """Dense Q Q^T, symmetrized so it is exactly symmetric."""
        m = self.basis @ self.basis.T
        return (m + m.T) / 2.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Project ``x`` onto the range."""
        return self.basis @ (self.basis.T @ x)


def _numerical_rank(values: np.ndarray, rel_tol: float) -> int:
    """Count of ``values`` above ``rel_tol`` times the largest; 0 when none is positive."""
    top = float(np.max(values)) if values.size else 0.0
    return int(np.sum(values > rel_tol * top)) if top > 0 else 0


def _idempotency_defect(basis: np.ndarray) -> float:
    """||P^2 - P||_F of P = Q Q^T, computed from the basis Q in O(n k^2).

    P^2 - P = Q E Q^T with E = Q^T Q - I, so the squared norm is
    tr(E (I + E) E (I + E)); no n x n matrix is formed.
    """
    e = basis.T @ basis - np.eye(basis.shape[1])
    m = e + e @ e
    return math.sqrt(max(float(np.sum(m * m.T)), 0.0))


_CGS_BLOCK = 64
# A projection that keeps at least this share of a column's norm leaves it
# orthogonal to the basis to rounding ("twice is enough", Kahan-Parlett).
_REORTH_RATIO = 1.0 / math.sqrt(2.0)


def _cgs2_in_block(w: np.ndarray, threshold: float) -> tuple[list[int], np.ndarray]:
    """Orthonormalize the columns of ``w`` in place by CGS2.

    Each column is projected twice against the block's columns kept so far,
    with one gemv pair per pass, and kept when its remainder exceeds
    ``threshold``. Kept columns are packed to the front of ``w``. Returns the
    kept indices and the norms of their remainders.
    """
    kept: list[int] = []
    norms: list[float] = []
    for j in range(w.shape[1]):
        v = w[:, j]
        if kept:
            q = w[:, : len(kept)]
            for _ in range(2):
                v -= q @ (q.T @ v)
        norm = float(np.linalg.norm(v))
        if norm > threshold and norm > 0.0:
            w[:, len(kept)] = v / norm
            kept.append(j)
            norms.append(norm)
    return kept, np.array(norms)


def orthonormal_columns(columns: np.ndarray, rank_tol: float) -> tuple[np.ndarray, list[int]]:
    """Orthonormalize the columns of a matrix by blocked classical Gram-Schmidt
    with reorthogonalization (BCGS2).

    Columns are taken in blocks of 64. A block is projected against the basis
    ``Q`` kept so far with one gemm pair, ``W -= Q (Q^T W)``, then
    orthonormalized column by column by CGS2 inside the block. When a kept
    column's remainder is below 1/sqrt(2) of its input norm, that one pass may
    have left rounding-level components along ``Q`` that normalization
    magnifies, so the block is projected against ``Q`` and orthonormalized
    inside the block once more. Doing this after the in-block step keeps the
    result orthonormal to rounding even when nearly dependent columns share a
    block.

    A column is dropped when its remainder after the first pass is at or below
    ``rank_tol`` times the largest input column norm. Because each block only
    sees the columns before it, the basis of a column prefix is the prefix of
    the basis, up to rounding. One power-of-two scale first brings the largest
    entry into [1/2, 1), so no norm overflows; being exact, it changes no basis
    that could be computed without it.

    Returns the orthonormal matrix and the indices of dropped columns.
    """
    dim, count = columns.shape
    if count == 0:
        return np.zeros((dim, 0)), []
    peak = float(np.max(np.abs(columns)))
    columns = np.ldexp(columns, -math.frexp(peak)[1])
    input_norms = np.linalg.norm(columns, axis=0)
    threshold = rank_tol * float(np.max(input_norms))
    basis = np.empty((dim, count), order="F")
    rank = 0
    dropped: list[int] = []
    for start in range(0, count, _CGS_BLOCK):
        w = np.array(columns[:, start : start + _CGS_BLOCK], dtype=float, order="F")
        q = basis[:, :rank]
        if rank:
            w -= q @ (q.T @ w)
        kept, remainders = _cgs2_in_block(w, threshold)
        if rank and np.any(remainders < _REORTH_RATIO * input_norms[start + np.array(kept, dtype=int)]):
            v = w[:, : len(kept)]
            v -= q @ (q.T @ v)
            kept = [kept[i] for i in _cgs2_in_block(v, 0.0)[0]]
        survivors = set(kept)
        dropped.extend(start + j for j in range(w.shape[1]) if j not in survivors)
        basis[:, rank : rank + len(kept)] = w[:, : len(kept)]
        rank += len(kept)
    return np.ascontiguousarray(basis[:, :rank]), dropped


def make_projector(
    vectors: Sequence,
    dim: Optional[int] = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
    min_rank: int = 0,
) -> Projector:
    """Build the orthogonal projector onto the span of ``vectors``.

    Linearly dependent inputs are dropped, so the result's rank can be lower
    than the number of vectors supplied. An empty list needs an explicit
    ``dim`` and yields the zero projector. ``min_rank`` lets callers demand a
    minimum achieved rank and turns falling short into an error.

    Vectors that are already orthonormal within ``tol_ortho`` are kept
    verbatim, which makes the construction idempotent: feeding a projector's
    basis back in reproduces the projector bit for bit.
    """
    vecs = [as_vector(v, name=f"basis vector {i}") for i, v in enumerate(vectors)]
    if vecs:
        lengths = {v.shape[0] for v in vecs}
        if len(lengths) != 1:
            raise ValidationError(f"basis vectors have mixed lengths {sorted(lengths)}")
        inferred = lengths.pop()
        if dim is not None and dim != inferred:
            raise ValidationError(f"basis vectors have length {inferred}, expected dim {dim}")
        dim = inferred
        columns = np.column_stack(vecs)
    else:
        if dim is None:
            raise ValidationError("an empty basis needs an explicit dim")
        columns = np.zeros((dim, 0))
    if dim <= 0:
        raise ValidationError(f"dim must be positive, got {dim}")

    input_defect = np.inf
    if columns.shape[1] and columns.shape[1] <= dim:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: not orthonormal
            input_defect = float(np.linalg.norm(columns.T @ columns - np.eye(columns.shape[1])))
    if input_defect <= tols.tol_ortho:
        basis = columns
    else:
        basis, _dropped = orthonormal_columns(columns, tols.rank_tol)
    rank = basis.shape[1]
    if rank < min_rank:
        raise ValidationError(f"projector rank {rank} fell below the required minimum {min_rank}")

    if rank:
        ortho_defect = float(np.linalg.norm(basis.T @ basis - np.eye(rank)))
        if ortho_defect > tols.tol_ortho:
            raise ValidationError(f"orthonormalization defect {ortho_defect:.3e} exceeds tol_ortho")
    return Projector(basis=_readonly(basis))


@dataclass(frozen=True)
class ProjectorReport:
    """Diagnostics saying how far a square matrix is from an orthogonal projector."""

    idempotency_defect: float
    symmetry_defect: float
    rank: int
    is_orthogonal_projector: bool


def projector_defects(matrix, tol: Optional[float] = None, tols: Tolerances = DEFAULT_TOLERANCES) -> ProjectorReport:
    """Measure idempotency and symmetry defects of a candidate projector matrix.

    ``is_orthogonal_projector`` holds when both defects stay within the
    tolerance relative to ``max(1, ||P||_F)``.
    """
    p = as_operator(matrix, name="candidate projector")
    n, m = p.shape
    if n != m:
        raise ValidationError(f"candidate projector must be square, got shape {p.shape}")
    if tol is None:
        tol = tols.tol_proj
    idem = float(np.linalg.norm(p @ p - p))
    sym = float(np.linalg.norm(p - p.T))
    scale = max(1.0, float(np.linalg.norm(p)))
    rank = _numerical_rank(np.linalg.svd(p, compute_uv=False), tols.rank_tol)
    ok = idem <= tol * scale and sym <= tol * scale
    return ProjectorReport(idempotency_defect=idem, symmetry_defect=sym, rank=rank, is_orthogonal_projector=ok)


def gram(operator) -> np.ndarray:
    """Gram operator L L^T of a linear map, exactly symmetric: numpy evaluates
    it for a contiguous L by a symmetric rank-k update, so strided L is copied."""
    l = as_operator(operator, name="operator")
    if not (l.flags.c_contiguous or l.flags.f_contiguous):
        l = np.ascontiguousarray(l)
    return l @ l.T


@dataclass(frozen=True)
class RepresentabilityReport:
    """Whether a symmetric PSD matrix factors as L L^T with a given control dimension."""

    representable: bool
    rank: int
    symmetry_defect: float
    min_eigenvalue: float
    factor: Optional[np.ndarray]


def gram_representable(
    gram_matrix,
    control_dim: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> RepresentabilityReport:
    """Decide whether ``gram_matrix`` is the Gram operator of some map from a
    ``control_dim``-dimensional space.

    The matrix must be symmetric and positive semidefinite within tolerance,
    and its numerical rank must not exceed ``control_dim``. On success the
    report carries a factor built from the spectral decomposition: columns
    sqrt(lambda_i) v_i for the leading eigenpairs, zero-padded to
    ``control_dim`` columns.
    """
    g = as_operator(gram_matrix, name="gram matrix")
    n, m = g.shape
    if n != m:
        raise ValidationError(f"gram matrix must be square, got shape {g.shape}")
    if not (isinstance(control_dim, (int, np.integer)) and control_dim >= 1):
        raise ValidationError(f"control_dim must be a positive integer, got {control_dim!r}")

    _part, lam, vectors, sym_defect, rank, fault = _gram_spectrum(g, tols)
    ok = fault is None and rank <= control_dim
    factor = None
    if ok:
        factor = np.zeros((n, control_dim))
        for k in range(rank):  # leading eigenpairs first; eigh's order is ascending
            factor[:, k] = np.sqrt(max(lam[n - 1 - k], 0.0)) * vectors[:, n - 1 - k]
    return RepresentabilityReport(
        representable=ok,
        rank=rank,
        symmetry_defect=sym_defect,
        min_eigenvalue=float(lam[0]) if lam.size else 0.0,
        factor=_readonly(factor) if factor is not None else None,
    )


def _gram_spectrum(g: np.ndarray, tols: Tolerances):
    """The Gram-only rule that :func:`gram_representable` and :func:`make_problem` share.

    Returns the symmetric part S = (G + G^T) / 2, ``eigh(S)`` in ascending
    order, the symmetry defect ||G - G^T||_F, the numerical rank, and the
    first fault found, or None: a symmetry defect or negative spectrum beyond
    ``tol_sym`` or ``tol_psd`` times max(1, ||G||_F), or a non-finite spectrum.
    """
    sym_defect = float(np.linalg.norm(g - g.T))
    scale = max(1.0, float(np.linalg.norm(g)))
    part = (g + g.T) / 2.0
    lam, vectors = np.linalg.eigh(part)
    fault = None
    if sym_defect > tols.tol_sym * scale:
        fault = f"gram matrix symmetry defect {sym_defect:.3e} exceeds tol_sym"
    elif not (np.all(np.isfinite(part)) and np.all(np.isfinite(lam))):
        fault = "the gram operator overflows: its entries or spectrum are not finite"
    elif lam.size and lam[0] < -tols.tol_psd * scale:
        fault = f"gram matrix is not positive semidefinite (smallest eigenvalue {lam[0]:.3e})"
    return part, lam, vectors, sym_defect, _numerical_rank(lam, tols.rank_tol), fault


@dataclass(frozen=True)
class ValidationRecord:
    """Defect norms and flags recorded while assembling a problem instance.

    The Gram facts are read from the problem's :class:`Spectrum`. Given the
    operator, ``gram_symmetry_defect`` is 0 (L L^T is exactly symmetric) and
    ``operator_norm`` is ||L||_2; it is ``None`` for Gram-only instances.
    """

    gram_symmetry_defect: float
    gram_min_eigenvalue: float
    gram_factor_defect: Optional[float]
    constraint_symmetry_defect: float
    constraint_idempotency_defect: float
    constraint_is_projector: bool
    constraint_supplied_raw: bool
    representable: bool
    representable_rank: int
    operator_norm: Optional[float] = None


@dataclass(frozen=True)
class Spectrum:
    """The one O(n^3) decomposition of a problem: G = vectors diag(gram_values) vectors^T.

    With the operator known it is the SVD L = U diag(singular_values) V^T in
    descending order: ``vectors`` is the square U, ``gram_values`` the squared
    singular values zero-padded to the ambient dimension, ``right`` is V^T.
    For Gram-only input it is ``eigh(G)``, without ``singular_values`` and
    ``right``. The arrays are made read-only.
    """

    vectors: np.ndarray
    gram_values: np.ndarray
    singular_values: Optional[np.ndarray] = None
    right: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for a in (self.vectors, self.gram_values, self.singular_values, self.right):
            if a is not None:
                a.setflags(write=False)


@dataclass(frozen=True)
class ProblemInstance:
    """A constrained operator equation in finite coordinates.

    ``operator`` maps controls (dimension ``control_dim``) into the ambient
    space (dimension ``ambient_dim``) and may be absent when only the Gram
    operator is known. ``constraint`` is the component of the equation that
    must be matched exactly: an orthogonal :class:`Projector`, kept as its
    orthonormal basis, or a raw square matrix admitted for counterexample
    studies and flagged as such in ``validation``. :meth:`project` applies
    either form to a vector without building an n x n matrix for a projector.
    """

    operator: Optional[np.ndarray]
    gram: np.ndarray
    constraint: Union[Projector, np.ndarray]
    rhs: np.ndarray
    ambient_dim: int
    control_dim: int
    tols: Tolerances
    validation: ValidationRecord
    spectrum: Spectrum

    @property
    def constraint_matrix(self) -> np.ndarray:
        """Dense matrix of the constraint map; built on request for a projector."""
        if isinstance(self.constraint, Projector):
            return self.constraint.matrix
        return self.constraint

    @property
    def constraint_is_projector(self) -> bool:
        return self.validation.constraint_is_projector

    def project(self, x: np.ndarray) -> np.ndarray:
        """Apply the constraint map to ``x``: Q (Q^T x) for a projector, P x for a raw matrix."""
        if isinstance(self.constraint, Projector):
            return self.constraint.apply(x)
        return self.constraint @ x

    def constrained(self, projector: Projector) -> "ProblemInstance":
        """Same equation under a different projector constraint.

        Used by the Galerkin sweep to re-pose the problem at each subspace
        level without revalidating the operator data.
        """
        if projector.dim != self.ambient_dim:
            raise ValidationError(
                f"replacement projector acts on dimension {projector.dim}, expected {self.ambient_dim}"
            )
        record = replace(
            self.validation,
            constraint_symmetry_defect=0.0,
            constraint_idempotency_defect=_idempotency_defect(projector.basis),
            constraint_is_projector=True,
            constraint_supplied_raw=False,
        )
        return replace(self, constraint=projector, validation=record)


def make_problem(
    operator=None,
    gram_matrix=None,
    constraint: Union[Projector, np.ndarray, None] = None,
    rhs=None,
    control_dim: Optional[int] = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> ProblemInstance:
    """Validate and bundle a problem instance.

    At least one of ``operator`` and ``gram_matrix`` must be given. When both
    are given they must agree (``||L L^T - G||_F <= tol_gram`` relative).
    When only the Gram operator is given, ``control_dim`` must be declared
    and the instance records whether the Gram operator is representable at
    that control dimension; a non-representable instance is still built, the
    flag is how downstream consumers learn that no operator exists.

    One decomposition, the SVD of L or else ``eigh(G)``, is kept as the
    instance's :class:`Spectrum`; the record's rank, norm and smallest Gram
    eigenvalue are read from it. A Gram operator that overflows is rejected,
    and so is a right-hand side whose norm overflows.

    A :class:`Projector` constraint is checked from its basis alone: its
    symmetry defect is 0 by construction and its idempotency defect costs
    O(n k^2). A raw (non-:class:`Projector`) constraint matrix is admitted
    but flagged: ``validation.constraint_supplied_raw`` is set, and
    ``validation.constraint_is_projector`` records whether it happens to pass
    the projector checks (:func:`projector_defects`) anyway.
    """
    if operator is None and gram_matrix is None:
        raise ValidationError("a problem needs an operator, a gram matrix, or both")
    if constraint is None:
        raise ValidationError("a problem needs a constraint")
    if rhs is None:
        raise ValidationError("a problem needs a right-hand side")

    l = as_operator(operator, name="operator") if operator is not None else None

    gram_factor_defect: Optional[float] = None
    operator_norm: Optional[float] = None
    if l is not None:
        if control_dim is not None and control_dim != l.shape[1]:
            raise ValidationError(
                f"declared control_dim {control_dim} conflicts with operator shape {l.shape}"
            )
        ambient_dim, control_dim = l.shape
        u, s, vt = np.linalg.svd(l, full_matrices=ambient_dim > control_dim)
        l = _readonly(l)  # contiguous, so its Gram product is exactly symmetric
        lam = np.zeros(ambient_dim)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            lam[: s.size] = s * s
            g = gram(l)
        spectrum = Spectrum(vectors=u, gram_values=lam, singular_values=s, right=vt)
        if gram_matrix is not None:
            g_given = as_operator(gram_matrix, shape=(ambient_dim, ambient_dim), name="gram matrix")
            gram_factor_defect = float(np.linalg.norm(g - g_given))
            scale = max(1.0, float(np.linalg.norm(g_given)))
            if gram_factor_defect > tols.tol_gram * scale:
                raise ValidationError(
                    f"gram matrix disagrees with the operator's gram product "
                    f"(defect {gram_factor_defect:.3e} exceeds tol_gram)"
                )
        gram_sym_defect = 0.0
        representable = True
        representable_rank = _numerical_rank(s, tols.rank_tol)
        operator_norm = float(s[0]) if s.size else 0.0
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(lam))):
            raise ValidationError("the gram operator overflows: its entries or spectrum are not finite")
    else:
        g = as_operator(gram_matrix, name="gram matrix")
        if g.shape[0] != g.shape[1]:
            raise ValidationError(f"gram matrix must be square, got shape {g.shape}")
        ambient_dim = g.shape[0]
        if control_dim is None:
            raise ValidationError("control_dim must be declared when no operator is given")
        if not (isinstance(control_dim, (int, np.integer)) and control_dim >= 1):
            raise ValidationError(f"control_dim must be a positive integer, got {control_dim!r}")
        g, lam, vectors, gram_sym_defect, representable_rank, fault = _gram_spectrum(g, tols)
        if fault:
            raise ValidationError(fault)
        spectrum = Spectrum(vectors=vectors, gram_values=lam)
        representable = representable_rank <= control_dim
    min_eig = float(np.min(spectrum.gram_values)) if ambient_dim else 0.0

    if isinstance(constraint, Projector):
        if constraint.dim != ambient_dim:
            raise ValidationError(
                f"constraint projector acts on dimension {constraint.dim}, expected {ambient_dim}"
            )
        p = constraint
        symmetry_defect = 0.0
        idempotency_defect = _idempotency_defect(constraint.basis)
        constraint_is_projector = True
        constraint_supplied_raw = False
    else:
        raw = as_operator(constraint, shape=(ambient_dim, ambient_dim), name="constraint matrix")
        p = _readonly(raw)
        c_report = projector_defects(raw, tols=tols)
        symmetry_defect = c_report.symmetry_defect
        idempotency_defect = c_report.idempotency_defect
        constraint_is_projector = c_report.is_orthogonal_projector
        constraint_supplied_raw = True

    h = as_vector(rhs, dim=ambient_dim, name="rhs")
    with np.errstate(over="ignore"):  # every threshold scales with ||h||
        if not math.isfinite(float(np.linalg.norm(h))):
            raise ValidationError("rhs is too large: its norm overflows")
    g.setflags(write=False)

    record = ValidationRecord(
        gram_symmetry_defect=gram_sym_defect,
        gram_min_eigenvalue=min_eig,
        gram_factor_defect=gram_factor_defect,
        constraint_symmetry_defect=symmetry_defect,
        constraint_idempotency_defect=idempotency_defect,
        constraint_is_projector=constraint_is_projector,
        constraint_supplied_raw=constraint_supplied_raw,
        representable=representable,
        representable_rank=representable_rank,
        operator_norm=operator_norm,
    )
    return ProblemInstance(
        operator=l,
        gram=g,
        constraint=p,
        rhs=_readonly(h),
        ambient_dim=ambient_dim,
        control_dim=int(control_dim),
        tols=tols,
        validation=record,
        spectrum=spectrum,
    )
