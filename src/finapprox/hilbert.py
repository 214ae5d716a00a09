"""Finite-coordinate Hilbert space primitives.

Vectors are 1-D float64 arrays, operators are 2-D float64 arrays. The types
here bundle them with the structure the rest of the library relies on:
orthogonal projectors stored as orthonormal bases, Gram operators with their
factorability diagnostics, problem spectra, and validated problem instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence, Union

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
    "orthonormal_columns",
    "make_projector",
    "projector_defects",
    "gram",
    "gram_representable",
    "make_problem",
]


class ValidationError(ValueError):
    """An operator, projector, or problem instance failed its structural checks."""


def _int_at_least(value, low: int) -> bool:
    """The one integer-parameter rule: an int or numpy integer, not a bool, at least ``low``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def _positive_real(value, name: str, below: float = math.inf) -> None:
    """The one real-parameter rule: a real number, not a bool, in (0, ``below``), so never NaN or inf."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and 0 < value < below):
        bound = "positive and finite" if below == math.inf else f"strictly between 0 and {below:g}"
        raise ValidationError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """The four thresholds that steer a verdict.

    Every tolerance is applied relative to the natural scale of the quantity
    it guards (right-hand-side norm, largest singular value): a rank or
    singularity decision counts a value as nonzero only when it is strictly
    above tolerance times scale. Each tolerance must be a positive finite
    real number, not a bool. They are read from ``problem.tols`` alone and
    steer the verdict on the problem as stated: building and checking input
    (projector bases, dropped vectors, projector and Gram checks) reads none
    of them; it uses one fixed threshold, 1e-10.

    Attributes
    ----------
    rank_tol : relative singular-value threshold for rank decisions, also
        for G alone, with the floor that G resolves (:meth:`Spectrum.rank`).
    singular_tol : relative smallest-singular-value threshold below which a
        linear system is reported singular instead of solved.
    decision_tol : relative threshold steering the solvability verdict.
    oracle_tol : relative residual threshold used by the range oracle.
    """

    rank_tol: float = 1e-10
    singular_tol: float = 1e-12
    decision_tol: float = 1e-6
    oracle_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            _positive_real(getattr(self, name), f"tolerance {name}")


DEFAULT_TOLERANCES = Tolerances()

# The one fixed threshold of building and checking input: absolute for ||Q^T Q - I||_F of a
# basis, else relative to max(1, ||.||_F), the largest column norm or the largest singular value.
_STRUCTURE_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _as_array(x, ndim: int, name: str) -> np.ndarray:
    """The one numeric-input check: a finite float array of ``ndim`` (1 or 2) dimensions.

    A value numpy cannot convert to floats raises :class:`ValidationError`,
    as every other failure here does.
    """
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if a.ndim != ndim:
        raise ValidationError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def as_vector(x, dim: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    v = _as_array(x, 1, name)
    if dim is not None and v.shape[0] != dim:
        raise ValidationError(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


def as_operator(a, shape: Optional[tuple] = None, name: str = "operator") -> np.ndarray:
    """Coerce to a finite 2-D float array, optionally checking its shape."""
    m = _as_array(a, 2, name)
    if shape is not None and m.shape != shape:
        raise ValidationError(f"{name} has shape {m.shape}, expected {shape}")
    return m


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector stored as its orthonormal basis Q alone.

    The projector is P = Q Q^T and is applied as Q (Q^T x); its rows, as a
    constraint, are Q^T. ``rank`` and ``dim`` are read from the basis shape.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Project ``x`` onto the range."""
        return self.basis @ (self.basis.T @ x)


def _dense_constraint(constraint: Union[Projector, np.ndarray]) -> np.ndarray:
    """The constraint as its n x n map: a raw matrix as it is, a :class:`Projector`
    as Q Q^T, symmetrized so it is exactly symmetric. The one place that forms it."""
    if not isinstance(constraint, Projector):
        return constraint
    m = constraint.basis @ constraint.basis.T
    return (m + m.T) / 2.0


def _numerical_rank(values, rel_tol: float, scale: Optional[float] = None) -> int:
    """The one numerically-zero rule: the count of ``values`` strictly above ``rel_tol * scale``.

    ``values`` is an array or a single number. ``scale`` defaults to the
    largest value; nothing counts when the scale is not positive.
    """
    if scale is None:
        scale = float(np.max(values)) if np.size(values) else 0.0
    return int(np.sum(values > rel_tol * scale)) if scale > 0 else 0


def _exponent(x: np.ndarray) -> int:
    """The binary exponent e of the largest magnitude in finite ``x``, so 2^-e x peaks
    in [1/2, 1): the one exact scale into the float range. 0 for a zero or empty ``x``."""
    return math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]


def _norm(x: np.ndarray) -> float:
    """The 2-norm (Frobenius for a matrix) of ``x`` as ``np.linalg.norm`` gives it,
    without its overflow warning. Only when that is inf for finite ``x`` is it
    recomputed after the scale of :func:`_exponent` and scaled back; so every
    norm numpy gets finite keeps its bits, and the norm is inf only past the
    float range."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
        if norm == math.inf and np.all(np.isfinite(x)):
            exponent = _exponent(x)
            norm = float(np.ldexp(np.linalg.norm(np.ldexp(x, -exponent)), exponent))
    return norm


class _Monomial:
    """A monomial matrix A, m x n with at most one nonzero per row and column,
    kept as its entries: A[rows[k], cols[k]] = values[k], zeros elsewhere.

    A monomial operator L and its diagonal Gram matrix L L^T take this form,
    and so do the orthogonal factors of a closed-form :class:`Spectrum`,
    signed permutations. A product with it gathers the operand's entries at
    ``cols`` and multiplies them by ``values``, then scatters them to
    ``rows`` of a zero array unless those are every row in order; no
    m x n array is formed, and on a finite operand the result is the BLAS
    product with the dense matrix bit for bit, but for the sign of a zero
    that a nonzero product underflows to, which an FMA kernel keeps and
    this product makes +0.0. It supports what its readers
    use: ``shape``, ``.T``, ``@`` on either side with an array of any
    dimension, stacked as ``np.matmul`` stacks, and a slice of the columns
    ``A[:, s]`` or of the rows ``A[s]``. ``np.asarray`` materializes it, and
    :attr:`dense` does so once and keeps the read-only result. Its three
    arrays are read-only.
    """

    __array_ufunc__ = None  # ndarray @ A defers to A.__rmatmul__

    def __init__(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]):
        for a in (rows, cols, values):
            a.setflags(write=False)
        self.rows, self.cols, self.values, self.shape = rows, cols, values, shape
        self._dense: Optional[np.ndarray] = None

    @classmethod
    def of(cls, a: np.ndarray) -> Optional["_Monomial"]:
        """The one monomial rule: ``a`` as its nonzero entries, in row-major order,
        when every row and column holds at most one, else None."""
        if np.count_nonzero(a) > min(a.shape):  # a dense a makes no index arrays
            return None
        i, j = np.nonzero(a)
        if np.any(np.bincount(i) > 1) or np.any(np.bincount(j) > 1):
            return None
        return cls(i, j, a[i, j], a.shape)

    @property
    def T(self) -> "_Monomial":
        return _Monomial(self.cols, self.rows, self.values, self.shape[::-1])

    def __getitem__(self, key) -> "_Monomial":
        rows, columns = key if isinstance(key, tuple) else (key, slice(None))
        if not (isinstance(rows, slice) and isinstance(columns, slice) and slice(None) in (rows, columns)):
            raise IndexError(f"a monomial matrix takes only a slice of its rows or of its columns, got {key!r}")
        if rows != slice(None):
            return self.T[:, rows].T
        kept = np.arange(self.shape[1])[columns]
        position = np.full(self.shape[1], -1)
        position[kept] = np.arange(kept.size)
        cols = position[self.cols]
        keep = cols >= 0
        return _Monomial(self.rows[keep], cols[keep], self.values[keep], (self.shape[0], kept.size))

    def _product(self, x, axis: int) -> np.ndarray:
        """A x along ``axis`` of ``x``, -1 or -2 as in ``np.matmul``.

        Zeros come out as +0.0, and an overflow as inf without a warning, as
        they do from a BLAS product with the dense matrix.
        """
        x = np.asarray(x, dtype=float)
        m, n = self.shape
        if x.ndim < -axis or x.shape[axis] != n:
            raise ValueError(f"matmul: shapes {self.shape} and {x.shape} do not align")
        out = np.take(x, self.cols, axis=axis)
        with np.errstate(over="ignore", invalid="ignore"):
            out *= self.values[:, None] if axis == -2 else self.values
        out += 0.0  # -0.0 becomes +0.0
        if self.rows.size == m and np.array_equal(self.rows, np.arange(m)):
            return out
        shape = list(x.shape)
        shape[axis] = m
        full = np.zeros(shape)
        np.moveaxis(full, axis, 0)[self.rows] = np.moveaxis(out, axis, 0)
        return full

    def __matmul__(self, x) -> np.ndarray:
        return self._product(x, -1 if np.ndim(x) == 1 else -2)

    def __rmatmul__(self, x) -> np.ndarray:
        return self.T._product(x, -1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:  # always a new array
        dense = np.zeros(self.shape, dtype=dtype)
        dense[self.rows, self.cols] = self.values
        return dense

    @property
    def dense(self) -> np.ndarray:
        """The dense matrix, made on first read and kept, read-only."""
        if self._dense is None:
            self._dense = np.asarray(self)
            self._dense.setflags(write=False)
        return self._dense


_Orthogonal = Union[np.ndarray, _Monomial]  # an orthogonal factor of a Spectrum


def _gram(l: Union[np.ndarray, _Monomial]) -> Union[np.ndarray, _Monomial]:
    """L L^T, exactly symmetric. For a monomial L it is read off the entries in
    O(m): the diagonal :class:`_Monomial` of the squares v*v, bit for bit the
    BLAS product. Else numpy evaluates it by a symmetric rank-k update, for
    which a strided L is copied."""
    if isinstance(l, _Monomial):
        return _Monomial(l.rows, l.rows, l.values * l.values, (l.shape[0], l.shape[0]))
    if not (l.flags.c_contiguous or l.flags.f_contiguous):
        l = np.ascontiguousarray(l)
    return l @ l.T


def _unused(indices: np.ndarray, size: int) -> np.ndarray:
    """The integers in ``range(size)`` missing from ``indices``, ascending (``np.setdiff1d``
    imports ``numpy.ma``, ~17 ms of a fresh process)."""
    unused = np.ones(size, dtype=bool)
    unused[indices] = False
    return np.flatnonzero(unused)


def _svd(l: Union[np.ndarray, _Monomial]) -> tuple[_Orthogonal, np.ndarray, _Orthogonal]:
    """``np.linalg.svd(l, full_matrices=m > n)``, exact and O(mn) for a monomial
    ``l``: s is the entries' magnitudes sorted descending (stably, so ties keep
    row order), U is the permutation of the unit columns of their rows and V^T
    the signed permutation of the rows sign(v) e_j of their columns, each
    followed by the unused rows or columns in ascending order; both are
    :class:`_Monomial`. An array ``l`` goes to LAPACK, and its U and V^T are
    arrays.
    """
    m, n = l.shape
    if not isinstance(l, _Monomial):
        return np.linalg.svd(l, full_matrices=m > n)
    k = min(m, n)
    i, j, v = l.rows, l.cols, l.values
    order = np.argsort(-np.abs(v), kind="stable")
    s = np.zeros(k)
    s[: v.size] = np.abs(v[order])
    u = _Monomial(np.concatenate([i[order], _unused(i, m)]), np.arange(m), np.ones(m), (m, m))
    right = np.concatenate([j[order], _unused(j, n)])[:k]
    vt = _Monomial(np.arange(k), right, np.concatenate([np.sign(v[order]), np.ones(k - v.size)]), (k, n))
    return u, s, vt


def _eigh(g: Union[np.ndarray, _Monomial]) -> tuple[np.ndarray, _Orthogonal]:
    """``np.linalg.eigh(g)``, read off the diagonal when ``g`` is diagonal: the
    diagonal sorted ascending (stably), both exact, and the matching unit
    vectors as a permutation :class:`_Monomial`. A :class:`_Monomial` ``g``
    is the diagonal L L^T of a monomial L, read in O(n); an array is checked
    for entries off its diagonal in O(n^2) and goes to LAPACK if it has any."""
    if isinstance(g, _Monomial):
        d = np.zeros(g.shape[0])
        d[g.rows] = g.values
    else:
        d = np.diagonal(g)
        if np.count_nonzero(g) > np.count_nonzero(d):
            return np.linalg.eigh(g)
    order = np.argsort(d, kind="stable")
    return d[order], _Monomial(order, np.arange(d.size), np.ones(d.size), (d.size, d.size))


def _idempotency_defect(basis: np.ndarray) -> float:
    """||P^2 - P||_F of P = Q Q^T, computed from the basis Q in O(n k^2).

    P^2 - P = Q E Q^T with E = Q^T Q - I, so the squared norm is
    tr(E (I + E) E (I + E)); no n x n matrix is formed.
    """
    e = basis.T @ basis - np.eye(basis.shape[1])
    m = e + e @ e
    return math.sqrt(max(float(np.sum(m * m.T)), 0.0))


def orthonormal_columns(columns: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Orthonormalize the columns of a matrix by classical Gram-Schmidt with
    reorthogonalization (CGS2).

    Columns are taken one at a time. Each is projected twice against the
    basis kept so far, with one gemv pair per pass; two passes leave it
    orthogonal to the basis to rounding ("twice is enough", Kahan-Parlett).
    A column is dropped when its remainder is at or below the fixed 1e-10
    times the largest input column norm. Each column sees only the columns
    before it, so the basis of a column prefix is the prefix of the basis,
    bit for bit. One power-of-two scale (:func:`_exponent`) first brings the
    largest entry into [1/2, 1), so no norm overflows; being exact, it
    changes no basis that could be computed without it.

    Returns the orthonormal matrix and the indices of dropped columns.
    """
    dim, count = columns.shape
    if count == 0:
        return np.zeros((dim, 0)), []
    columns = np.ldexp(columns, -_exponent(columns))
    top = float(np.max(np.linalg.norm(columns, axis=0)))
    w = np.array(columns, dtype=float, order="F")  # kept columns are packed to its front
    rank = 0
    dropped: list[int] = []
    for j in range(count):
        v = w[:, j]
        if rank:
            q = w[:, :rank]
            for _ in range(2):
                v -= q @ (q.T @ v)
        norm = float(np.linalg.norm(v))
        if _numerical_rank(norm, _STRUCTURE_TOL, top):
            w[:, rank] = v / norm
            rank += 1
        else:
            dropped.append(j)
    return np.ascontiguousarray(w[:, :rank]), dropped


def make_projector(vectors: Sequence, dim: Optional[int] = None) -> Projector:
    """Build the orthogonal projector onto the span of ``vectors``.

    Linearly dependent inputs are dropped by :func:`orthonormal_columns`,
    which reads no tolerance, so the rank can be lower than the number of
    vectors supplied. An empty list needs an explicit ``dim`` and yields the
    zero projector.

    Vectors whose defect ||Q^T Q - I||_F is within the fixed 1e-10 are kept
    verbatim, which makes the construction idempotent: feeding a projector's
    basis back in reproduces the projector bit for bit.
    """
    if dim is not None and not _int_at_least(dim, 1):
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    if not np.iterable(vectors):
        raise ValidationError(f"basis vectors must be a sequence of vectors, got {vectors!r}")
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
    if dim == 0:
        raise ValidationError("basis vectors have length 0")

    defect = np.inf
    if columns.shape[1] and columns.shape[1] <= dim:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: not orthonormal
            defect = float(np.linalg.norm(columns.T @ columns - np.eye(columns.shape[1])))
    if defect <= _STRUCTURE_TOL:
        basis = columns
    else:
        basis, _dropped = orthonormal_columns(columns)
        defect = float(np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])))
    if defect > _STRUCTURE_TOL:
        raise ValidationError(f"the basis is not orthonormal after orthonormalization (defect {defect:.3e})")
    return Projector(basis=_readonly(basis))


@dataclass(frozen=True)
class ProjectorReport:
    """Diagnostics saying how far a square matrix is from an orthogonal projector."""

    idempotency_defect: float
    symmetry_defect: float
    rank: int
    is_orthogonal_projector: bool


def projector_defects(matrix) -> ProjectorReport:
    """Measure idempotency and symmetry defects of a candidate projector matrix.

    ``is_orthogonal_projector`` holds when both defects stay within the fixed
    1e-10 times ``max(1, ||P||_F)``; ``rank`` counts the singular values above
    the same 1e-10 times the largest.
    """
    p = as_operator(matrix, name="candidate projector")
    n, m = p.shape
    if n != m:
        raise ValidationError(f"candidate projector must be square, got shape {p.shape}")
    idem, sym, ok = _projector_checks(p)
    rank = _numerical_rank(np.linalg.svd(p, compute_uv=False), _STRUCTURE_TOL)
    return ProjectorReport(idempotency_defect=idem, symmetry_defect=sym, rank=rank, is_orthogonal_projector=ok)


def _projector_checks(p: np.ndarray) -> tuple[float, float, bool]:
    """The rank-free part of :func:`projector_defects` for a square float matrix:
    the idempotency and symmetry defects, and ``is_orthogonal_projector``. A
    ``p @ p`` that overflows leaves the idempotency defect inf."""
    with np.errstate(over="ignore"):
        square = p @ p
    idem = _norm(square - p)
    sym = _norm(p - p.T)
    scale = max(1.0, _norm(p))
    return idem, sym, idem <= _STRUCTURE_TOL * scale and sym <= _STRUCTURE_TOL * scale


def gram(operator) -> np.ndarray:
    """Gram operator L L^T of a linear map, exactly symmetric. A monomial L, with at
    most one nonzero per row and column, has it read off its entries, bit for
    bit the BLAS product; any other L gets the product, a symmetric rank-k
    update."""
    l = as_operator(operator, name="operator")
    monomial = _Monomial.of(l)
    return np.asarray(_gram(l if monomial is None else monomial))


@dataclass(frozen=True)
class RepresentabilityReport:
    """Whether a symmetric PSD matrix factors as L L^T with a given control dimension."""

    representable: bool
    rank: int
    symmetry_defect: float
    min_eigenvalue: float
    factor: Optional[np.ndarray]


def gram_representable(gram_matrix, control_dim: int) -> RepresentabilityReport:
    """Decide whether ``gram_matrix`` is the Gram operator of some map from a
    ``control_dim``-dimensional space.

    The matrix must be symmetric and positive semidefinite within the fixed
    1e-10 times ``max(1, ||G||_F)``, and its numerical rank, by
    :meth:`Spectrum.rank` at the default ``rank_tol``, must not exceed
    ``control_dim``. On success the report carries a factor built from the
    spectral decomposition: columns sqrt(lambda_i) v_i for the leading
    eigenpairs, zero-padded to ``control_dim`` columns.
    """
    g = as_operator(gram_matrix, name="gram matrix")
    _part, spectrum, sym_defect, fault = _gram_spectrum(g, control_dim)
    lam, rank = spectrum.gram_values, spectrum.rank(DEFAULT_TOLERANCES.rank_tol)
    ok = fault is None and rank <= control_dim
    factor = None
    if ok:
        u, s = spectrum.leading(rank)
        factor = np.zeros((g.shape[0], control_dim))
        factor[:, :rank] = np.asarray(u) * s
    return RepresentabilityReport(
        representable=ok,
        rank=rank,
        symmetry_defect=sym_defect,
        min_eigenvalue=float(lam[0]) if lam.size else 0.0,
        factor=_readonly(factor) if factor is not None else None,
    )


def _gram_spectrum(g: np.ndarray, control_dim):
    """The Gram-only rule that :func:`gram_representable` and :func:`make_problem` share.

    Raises :class:`ValidationError` unless G is square and ``control_dim`` is
    a positive integer. Returns the symmetric part S = (G + G^T) / 2, the
    :class:`Spectrum` of ``eigh(S)``, the symmetry defect ||G - G^T||_F, and
    the first fault found, or None: a symmetry defect or negative spectrum
    beyond the fixed 1e-10 times max(1, ||G||_F), or a non-finite spectrum.
    """
    if g.shape[0] != g.shape[1]:
        raise ValidationError(f"gram matrix must be square, got shape {g.shape}")
    if not _int_at_least(control_dim, 1):
        raise ValidationError(f"control_dim must be a positive integer, got {control_dim!r}")
    with np.errstate(over="ignore"):  # an overflow is a fault below
        sym_defect = _norm(g - g.T)
        scale = max(1.0, _norm(g))
        part = (g + g.T) / 2.0
    lam, vectors = _eigh(part)
    fault = None
    if sym_defect > _STRUCTURE_TOL * scale:
        fault = f"gram matrix is not symmetric (symmetry defect {sym_defect:.3e})"
    elif not (np.all(np.isfinite(part)) and np.all(np.isfinite(lam))):
        fault = "the gram operator overflows: its entries or spectrum are not finite"
    elif lam.size and lam[0] < -_STRUCTURE_TOL * scale:
        fault = f"gram matrix is not positive semidefinite (smallest eigenvalue {lam[0]:.3e})"
    return part, Spectrum(vectors=vectors, gram_values=lam), sym_defect, fault


@dataclass(frozen=True)
class ValidationRecord:
    """Defect norms and flags of a problem instance; see :attr:`ProblemInstance.validation`.

    Given the operator, ``gram_symmetry_defect`` is 0 (L L^T is exactly
    symmetric) and ``operator_norm`` is ||L||_2; it is ``None`` for
    Gram-only instances. ``representable_rank`` is :meth:`Spectrum.rank` at
    ``rank_tol``, in singular values whether L or only G = L L^T is given.
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
    """The one decomposition of a problem: G = vectors diag(gram_values) vectors^T.

    With the operator known it is the SVD L = U diag(singular_values) V^T in
    descending order: ``vectors`` is the square U, ``gram_values`` the squared
    singular values zero-padded to the ambient dimension, ``right`` is V^T.
    For Gram-only input, and for :meth:`ProblemInstance.gram_view`, it is the
    eigendecomposition of G, without ``singular_values`` and ``right``. It is
    read off the entries of a monomial L or a diagonal G (:func:`_svd`,
    :func:`_eigh`), and then ``vectors`` and ``right`` are signed
    permutations, kept as their entries and applied by indexing
    (:class:`_Monomial`); else LAPACK makes it, and they are arrays. Either
    way they support ``@``, ``.T`` and column slices, and every array, index
    arrays included, is made read-only. An SVD is stored descending and an
    eigendecomposition ascending; :meth:`leading` reads either largest first.
    """

    vectors: _Orthogonal
    gram_values: np.ndarray
    singular_values: Optional[np.ndarray] = None
    right: Optional[_Orthogonal] = None

    def __post_init__(self) -> None:
        for a in (self.vectors, self.gram_values, self.singular_values, self.right):
            if isinstance(a, np.ndarray):  # a _Monomial's arrays are read-only already
                a.setflags(write=False)

    def rank(self, rank_tol: float) -> int:
        """The problem's one rank rule: the count of sigma above ``rank_tol`` sigma_max.
        Given only G, sigma = sqrt(max(lambda, 0)) is resolved only to about sqrt(n eps)
        sigma_max, so the floor is max(rank_tol, 4 sqrt(n eps)); the 4 is fixed, not an option."""
        if self.singular_values is not None:
            return _numerical_rank(self.singular_values, rank_tol)
        floor = max(rank_tol, 4.0 * math.sqrt(self.gram_values.size * np.finfo(float).eps))
        return _numerical_rank(np.sqrt(np.maximum(self.gram_values, 0.0)), floor)

    def leading(self, r: int) -> tuple[_Orthogonal, np.ndarray]:
        """The ``r`` leading vectors and their sigma, largest first, whatever the stored order."""
        if self.singular_values is not None:
            return self.vectors[:, :r], self.singular_values[:r]
        return self.vectors[:, ::-1][:, :r], np.sqrt(np.maximum(self.gram_values[::-1][:r], 0.0))


class _Decomposition:
    """A problem's one decomposition, made on first read.

    Built from an operator, an array or a :class:`_Monomial`, it runs
    :func:`_svd` the first time :attr:`spectrum` is read; Gram-only input
    hands in the :func:`_eigh` of its PSD check. Every instance that
    :meth:`ProblemInstance.constrained` derives holds the same object, so the
    decomposition runs at most once per problem.
    """

    def __init__(
        self, operator: Union[np.ndarray, _Monomial, None] = None, spectrum: Optional[Spectrum] = None
    ):
        self._operator = operator
        self._spectrum = spectrum

    @property
    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            u, s, vt = _svd(self._operator)
            lam = np.zeros(self._operator.shape[0])  # s^2 zero-padded to the ambient dimension
            lam[: s.size] = s * s
            self._spectrum = Spectrum(vectors=u, gram_values=lam, singular_values=s, right=vt)
        return self._spectrum


@dataclass(frozen=True)
class ProblemInstance:
    """A constrained operator equation in finite coordinates.

    ``operator`` maps controls (dimension ``control_dim``) into the ambient
    space (dimension ``ambient_dim``) and may be absent when only the Gram
    operator is known. ``constraint`` is the component of the equation that
    must be matched exactly: an orthogonal :class:`Projector`, kept as its
    orthonormal basis, or a raw square matrix admitted for counterexample
    studies and flagged as such in ``validation``. :attr:`constraint_rows`
    is either form as rows, and :meth:`project` applies it to a vector
    without building an n x n matrix for a projector.

    A monomial operator (at most one nonzero per row and column) and its
    diagonal Gram operator are held as their entries, each a
    :class:`_Monomial` that every instance derived from this one shares, and
    the library's products with them are gathers. :attr:`operator` and
    :attr:`gram` are read-only arrays all the same: a :class:`_Monomial`'s is
    built on first read and kept on it. Any other operator, and the Gram
    operator of Gram-only input, is held as a read-only array.

    The problem's :class:`Spectrum` is computed on first read of
    :attr:`spectrum` or :attr:`validation` and shared with every instance
    :meth:`constrained` derives.
    """

    _operator: Union[np.ndarray, _Monomial, None]
    _gram: Union[np.ndarray, _Monomial]
    constraint: Union[Projector, np.ndarray]
    rhs: np.ndarray
    ambient_dim: int
    control_dim: int
    tols: Tolerances
    _checks: Mapping[str, object] = field(repr=False)  # the record's Gram defects, found at build
    _decomposition: _Decomposition = field(repr=False)

    @property
    def operator(self) -> Optional[np.ndarray]:
        return self._operator.dense if isinstance(self._operator, _Monomial) else self._operator

    @property
    def gram(self) -> np.ndarray:
        return self._gram.dense if isinstance(self._gram, _Monomial) else self._gram

    @property
    def spectrum(self) -> Spectrum:
        return self._decomposition.spectrum

    @property
    def validation(self) -> ValidationRecord:
        """The Gram defects found at build plus the facts measured on read: rank,
        norm, smallest eigenvalue and ``representable_rank <= control_dim``
        from the :class:`Spectrum`, and the constraint's projector checks, from
        the basis in O(n k^2) for a :class:`Projector` (symmetric by
        construction) and for a raw matrix by the checks of
        :func:`projector_defects` less its rank, so no SVD runs."""
        lam, s = self.spectrum.gram_values, self.spectrum.singular_values
        rank = self.spectrum.rank(self.tols.rank_tol)
        if isinstance(self.constraint, Projector):
            idempotency, symmetry, is_projector = _idempotency_defect(self.constraint.basis), 0.0, True
        else:
            idempotency, symmetry, is_projector = _projector_checks(self.constraint)
        return ValidationRecord(
            **self._checks,
            gram_min_eigenvalue=float(np.min(lam)) if lam.size else 0.0,
            constraint_symmetry_defect=symmetry,
            constraint_idempotency_defect=idempotency,
            constraint_is_projector=is_projector,
            constraint_supplied_raw=not isinstance(self.constraint, Projector),
            representable=rank <= self.control_dim,
            representable_rank=rank,
            operator_norm=None if s is None else (float(s[0]) if s.size else 0.0),
        )

    @property
    def constraint_rows(self) -> np.ndarray:
        """The constraint's rows, as a problem file stores them: Q^T (a view of the
        basis) for a :class:`Projector`, the raw matrix otherwise."""
        return self.constraint.basis.T if isinstance(self.constraint, Projector) else self.constraint

    @property
    def constraint_is_projector(self) -> bool:
        """True for a :class:`Projector`; a raw matrix is measured on read."""
        if isinstance(self.constraint, Projector):
            return True
        return _projector_checks(self.constraint)[2]

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
        return replace(self, constraint=projector)

    def gram_view(self) -> "ProblemInstance":
        """The same equation posed on G alone, decomposed by one :func:`_eigh` of G.

        It has no operator, and shares G and h with this instance. Solves that
        read only G can use it instead of the operator's SVD; a Gram-only
        instance is its own view.
        """
        if self._operator is None:
            return self
        lam, vectors = _eigh(self._gram)
        spectrum = Spectrum(vectors=vectors, gram_values=lam)
        return replace(self, _operator=None, _decomposition=_Decomposition(spectrum=spectrum))


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
    are given they must agree: ``||L L^T - G||_F <= 1e-10 max(1, ||G||_F)``.
    When only the Gram operator is given, ``control_dim`` must be declared.
    A Gram operator that is not representable at that control dimension is
    still admitted: ``validation.representable`` is how downstream consumers
    learn that no operator exists.

    This function only rejects; every fact it does not reject on is measured
    when ``validation`` is read. The instance's :class:`Spectrum` is the SVD
    of L, run on first use, or else the eigendecomposition of G, run here for
    the PSD check; a monomial L or a diagonal G is read off its entries.
    A Gram operator that overflows is rejected (given L, by the bound
    lambda_max(G) <= max_i sum_j |G_ij|, which needs no decomposition), and
    so is a right-hand side whose norm overflows. A monomial L, with at most
    one nonzero v per row and column, is kept as its entries, not as an
    array, and so is G = L L^T, the diagonal of the squares v*v; that bound,
    max(v*v), is read off them too, and the SVD reuses them. Building then
    runs no O(n^3) product and keeps no n x n array. Any other L is kept as a
    read-only copy, and G as an array.

    A :class:`Projector` constraint is kept as its basis. A raw
    (non-:class:`Projector`) square constraint matrix is admitted as it is:
    ``validation.constraint_supplied_raw`` flags it, and
    ``validation.constraint_is_projector`` says whether it happens to pass
    the projector checks of :func:`projector_defects`, run when read.
    """
    if operator is None and gram_matrix is None:
        raise ValidationError("a problem needs an operator, a gram matrix, or both")
    if constraint is None:
        raise ValidationError("a problem needs a constraint")
    if rhs is None:
        raise ValidationError("a problem needs a right-hand side")

    l = as_operator(operator, name="operator") if operator is not None else None

    gram_factor_defect: Optional[float] = None
    if l is not None:
        if control_dim is not None and control_dim != l.shape[1]:
            raise ValidationError(
                f"declared control_dim {control_dim} conflicts with operator shape {l.shape}"
            )
        ambient_dim, control_dim = l.shape
        monomial = _Monomial.of(l)
        l = _readonly(l) if monomial is None else monomial  # contiguous, so L L^T is exactly symmetric
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            g = _gram(l)
            if monomial is None:
                row_sum_bound = float(np.linalg.norm(g, np.inf))
                g.setflags(write=False)
            else:  # the same number, as G is diagonal and nonnegative
                row_sum_bound = float(np.max(g.values, initial=0.0))
            if gram_matrix is not None:
                g_given = as_operator(gram_matrix, shape=(ambient_dim, ambient_dim), name="gram matrix")
                gram_factor_defect = _norm(np.asarray(g) - g_given)
                scale = max(1.0, _norm(g_given))
                if gram_factor_defect > _STRUCTURE_TOL * scale:
                    raise ValidationError(
                        f"gram matrix disagrees with the operator's gram product (defect {gram_factor_defect:.3e})"
                    )
        decomposition = _Decomposition(operator=l)
        gram_sym_defect = 0.0
        if not math.isfinite(row_sum_bound):
            raise ValidationError("the gram operator overflows: its entries or spectrum are not finite")
    else:
        if control_dim is None:
            raise ValidationError("control_dim must be declared when no operator is given")
        g = as_operator(gram_matrix, name="gram matrix")
        g, spectrum, gram_sym_defect, fault = _gram_spectrum(g, control_dim)
        ambient_dim = g.shape[0]
        if fault:
            raise ValidationError(fault)
        g.setflags(write=False)
        decomposition = _Decomposition(spectrum=spectrum)

    if isinstance(constraint, Projector):
        if constraint.dim != ambient_dim:
            raise ValidationError(
                f"constraint projector acts on dimension {constraint.dim}, expected {ambient_dim}"
            )
        p = constraint
    else:
        p = _readonly(as_operator(constraint, shape=(ambient_dim, ambient_dim), name="constraint matrix"))

    h = as_vector(rhs, dim=ambient_dim, name="rhs")
    if not math.isfinite(_norm(h)):  # every threshold scales with ||h||
        raise ValidationError("rhs is too large: its norm overflows")

    checks = {"gram_symmetry_defect": gram_sym_defect, "gram_factor_defect": gram_factor_defect}
    return ProblemInstance(
        _operator=l,
        _gram=g,
        constraint=p,
        rhs=_readonly(h),
        ambient_dim=ambient_dim,
        control_dim=int(control_dim),
        tols=tols,
        _checks=checks,
        _decomposition=decomposition,
    )
