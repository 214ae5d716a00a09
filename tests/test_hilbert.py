"""Projector construction, Gram handling, and problem assembly."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finapprox import (
    DEFAULT_TOLERANCES,
    AlphaSchedule,
    Projector,
    Tolerances,
    ValidationError,
    build_scenario,
    coordinate_family,
    diagonal_steps,
    family_projector,
    gram,
    gram_representable,
    make_problem,
    make_projector,
    midpoint_grid,
    orthonormal_columns,
    projector_defects,
    solve_regularized,
)
from helpers import record_linalg_calls


def small_problem():
    return make_problem(operator=np.eye(2), constraint=make_projector([[1.0, 0.0]]), rhs=np.ones(2))


def random_projector(rng, dim, rank):
    basis = rng.standard_normal((dim, rank))
    return make_projector([basis[:, j] for j in range(rank)])


def test_tolerances_positive():
    with pytest.raises(ValidationError):
        Tolerances(rank_tol=0.0)
    with pytest.raises(ValidationError):
        Tolerances(decision_tol=-1e-6)
    tols = Tolerances(id_tol=1e-8)
    assert tols.id_tol == 1e-8
    assert DEFAULT_TOLERANCES.rank_tol == 1e-10


def test_orthonormal_columns_matches_qr_span():
    """The hand-rolled orthonormalization must span what QR spans."""
    rng = np.random.default_rng(20260817)
    for _ in range(50):
        dim = rng.integers(2, 9)
        k = rng.integers(1, dim + 1)
        a = rng.standard_normal((dim, k))
        q_ours, dropped = orthonormal_columns(a, DEFAULT_TOLERANCES.rank_tol)
        assert dropped == []
        q_ref, _ = np.linalg.qr(a)
        # Same span iff the two orthogonal projectors coincide.
        assert_allclose(q_ours @ q_ours.T, q_ref @ q_ref.T, atol=1e-12)
        assert_allclose(q_ours.T @ q_ours, np.eye(k), atol=1e-13)


def test_orthonormal_columns_drops_dependent():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]).T  # wrong orientation on purpose
    a = a.T  # columns: (1,0), (2,0), (0,1); middle column is dependent
    q, dropped = orthonormal_columns(a.T if a.shape[0] != 2 else a, 1e-10)
    assert dropped == [1]
    assert q.shape == (2, 2)


def test_orthonormal_columns_zero_column():
    a = np.zeros((3, 1))
    q, dropped = orthonormal_columns(a, 1e-10)
    assert dropped == [0]
    assert q.shape == (3, 0)


@pytest.mark.parametrize("size", [1e160, 1e308])
def test_orthonormal_columns_at_overflowing_norms(size):
    """Columns whose norms overflow give the basis they give once scaled into range.

    At 1e160 the squared norm overflows, at 1e308 the norm itself does; the
    drop rule stays relative to the largest column in both.
    """
    e1, e2 = np.eye(3)[:, :2].T
    pair = np.column_stack([size * e1, e2])
    assert orthonormal_columns(pair, DEFAULT_TOLERANCES.rank_tol)[1] == [1]
    assert make_projector(list(pair.T)).rank == make_projector([1e150 * e1, e2]).rank == 1
    rng = np.random.default_rng(41)
    dense = size * rng.uniform(-1.0, 1.0, (6, 4))
    for columns in (pair, dense, np.column_stack([dense, (dense[:, 0] + dense[:, 1]) / 2])):
        in_range = np.ldexp(columns, -np.frexp(size)[1])
        assert np.max(np.linalg.norm(in_range, axis=0)) < 10.0
        got, got_dropped = orthonormal_columns(columns, DEFAULT_TOLERANCES.rank_tol)
        want, want_dropped = orthonormal_columns(in_range, DEFAULT_TOLERANCES.rank_tol)
        np.testing.assert_array_equal(got, want)
        assert got_dropped == want_dropped
        np.testing.assert_array_equal(make_projector(list(columns.T)).basis, got)


def _reference_mgs(columns, rank_tol):
    """Column-by-column modified Gram-Schmidt with a second pass, the reference."""
    dim, count = columns.shape
    threshold = rank_tol * float(np.max(np.linalg.norm(columns, axis=0)))
    kept, dropped = [], []
    for j in range(count):
        v = columns[:, j].astype(float, copy=True)
        for _ in range(2):
            for q in kept:
                v -= (q @ v) * q
        norm = float(np.linalg.norm(v))
        if norm > threshold and norm > 0.0:
            kept.append(v / norm)
        else:
            dropped.append(j)
    return (np.column_stack(kept) if kept else np.zeros((dim, 0))), dropped


NEAR_COSINE = 1.0 - 1e-9


def _block_boundary_input(rng, dim, count, near_pairs):
    """Random columns with exact dependencies at and across the 64-column block
    edges and a zero column; with ``near_pairs``, also pairs at cosine
    NEAR_COSINE inside one block and across a block edge."""
    a = rng.standard_normal((dim, count))
    for j, parents in ((63, (10, 62)), (64, (0, 63)), (65, (64, 3)), (130, (1, 129, 100))):
        a[:, j] = sum(rng.standard_normal() * a[:, p] for p in parents)
    a[:, 90] = 0.0
    if near_pairs:
        for first, second in ((100, 101), (127, 128)):
            x = a[:, first] / np.linalg.norm(a[:, first])
            z = rng.standard_normal(dim)
            z -= (z @ x) * x
            z /= np.linalg.norm(z)
            a[:, second] = 3.0 * (NEAR_COSINE * x + np.sqrt(1.0 - NEAR_COSINE**2) * z)
    return a


def test_orthonormal_columns_across_block_boundaries():
    """CGS2 drops what MGS drops and spans what MGS spans, around column 64 too.

    A near-dependent pair has condition number kappa = 1/sin(angle), about
    2.2e4, so any two stable orthonormalizations agree there only to about
    eps * kappa (Householder QR and MGS differ by 1.5e-12 on these inputs);
    the projector bound is 1e-12 without the pairs and eps * kappa with them.
    Orthonormality is held to 1e-13 either way.
    """
    rng = np.random.default_rng(20261018)
    kappa = 1.0 / np.sqrt(1.0 - NEAR_COSINE**2)
    for near_pairs, projector_tol in ((False, 1e-12), (True, np.finfo(float).eps * kappa)):
        for count in (150, 200):
            a = _block_boundary_input(rng, 256, count, near_pairs)
            q, dropped = orthonormal_columns(a, DEFAULT_TOLERANCES.rank_tol)
            q_ref, dropped_ref = _reference_mgs(a, DEFAULT_TOLERANCES.rank_tol)
            assert dropped == dropped_ref == [63, 64, 65, 90, 130]
            assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-13
            assert_allclose(q @ q.T, q_ref @ q_ref.T, rtol=0, atol=projector_tol)


def test_make_projector_properties():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        proj = random_projector(rng, dim, rank)
        assert proj.rank == rank
        assert proj.dim == dim
        p = proj.matrix
        assert_allclose(p, p.T, atol=0)  # built exactly symmetric
        assert_allclose(p @ p, p, atol=1e-12)
        # complement is the projector onto the orthogonal complement
        c = np.eye(dim) - p
        assert_allclose(c + p, np.eye(dim), atol=0)
        x = rng.standard_normal(dim)
        q = proj.basis
        assert_allclose(q @ (q.T @ x), proj.apply(x), atol=0)  # the stored form
        assert_allclose(p @ x, proj.apply(x), atol=1e-12)


def test_projector_idempotency_defect_from_basis():
    """A basis off orthonormality by a known factor records the dense ||P^2 - P||_F."""
    rng = np.random.default_rng(41)
    for dim, rank in ((5, 1), (8, 3), (12, 12)):
        q, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
        proj = Projector(basis=q * (1.0 + 1e-6))
        assert proj.rank == rank and proj.dim == dim
        p = proj.matrix
        dense = np.linalg.norm(p @ p - p)
        problem = make_problem(operator=np.eye(dim), constraint=proj, rhs=np.ones(dim))
        assert_allclose(problem.validation.constraint_idempotency_defect, dense, rtol=1e-6)
        assert problem.validation.constraint_symmetry_defect == 0.0
        reposed = problem.constrained(proj)
        assert reposed.validation == problem.validation


def test_make_projector_idempotent_on_orthonormal_input():
    """Feeding a projector's basis back reproduces it bit for bit."""
    rng = np.random.default_rng(29)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        first = random_projector(rng, dim, rank)
        second = make_projector([first.basis[:, j] for j in range(rank)])
        assert np.array_equal(first.basis, second.basis)
        assert np.array_equal(first.matrix, second.matrix)


def test_make_projector_empty_needs_dim():
    with pytest.raises(ValidationError):
        make_projector([])
    proj = make_projector([], dim=4)
    assert proj.rank == 0
    assert_allclose(proj.matrix, np.zeros((4, 4)), atol=0)


def test_make_projector_drops_dependent_vectors():
    vecs = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    proj = make_projector(vecs)  # dependent vector silently dropped
    assert proj.rank == 1
    assert_allclose(proj.basis, [[1.0], [0.0]], atol=0)


def test_projector_defects_flags():
    proj = make_projector([np.array([1.0, 1.0]) / np.sqrt(2.0)])
    report = projector_defects(proj.matrix)
    assert report.is_orthogonal_projector
    assert report.idempotency_defect <= 1e-14
    assert report.symmetry_defect == 0.0
    assert report.rank == 1

    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = projector_defects(nilpotent)
    assert not report.is_orthogonal_projector
    assert_allclose(report.symmetry_defect, np.sqrt(2.0), rtol=1e-14)
    assert_allclose(report.idempotency_defect, 1.0, rtol=1e-14)


def test_gram_is_symmetrized_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        l = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        g = gram(l)
        assert_allclose(g, g.T, atol=0)
        assert_allclose(g, l @ l.T, atol=1e-13)


def test_gram_representable_rank_threshold():
    g = np.diag([1.0, 1.0, 0.0])
    low = gram_representable(g, control_dim=1)
    assert not low.representable
    assert low.rank == 2
    ok = gram_representable(g, control_dim=2)
    assert ok.representable
    assert ok.factor.shape == (3, 2)
    assert_allclose(ok.factor @ ok.factor.T, g, atol=1e-12)


def test_gram_representable_random_psd():
    rng = np.random.default_rng(13)
    for _ in range(25):
        dim = int(rng.integers(1, 8))
        k = int(rng.integers(1, dim + 1))
        l = rng.standard_normal((dim, k))
        g = l @ l.T
        report = gram_representable(g, control_dim=dim)
        assert report.representable
        assert report.rank <= k
        assert_allclose(report.factor @ report.factor.T, g, atol=1e-10 * max(1.0, np.linalg.norm(g)))


def test_make_problem_shapes_and_validation():
    rng = np.random.default_rng(17)
    l = rng.standard_normal((4, 3))
    proj = random_projector(rng, 4, 2)
    h = rng.standard_normal(4)
    problem = make_problem(operator=l, constraint=proj, rhs=h)
    assert problem.ambient_dim == 4
    assert problem.control_dim == 3
    assert problem.constraint_is_projector
    assert_allclose(problem.gram, l @ l.T, atol=1e-13)
    record = problem.validation
    assert record.representable  # trivially representable, the factor is L itself
    assert record.gram_factor_defect is None
    assert not record.constraint_supplied_raw
    assert record.constraint_is_projector


def test_problem_spectrum_is_one_decomposition(monkeypatch):
    """The kept spectrum reproduces L and G; validation's facts are read from it.

    Given the operator, make_problem runs no decomposition. The first read of
    the spectrum or of the record runs one SVD of L, and every instance that
    ``constrained`` derives shares it.
    """
    rng = np.random.default_rng(29)
    calls = record_linalg_calls(monkeypatch)
    first_reads = (
        lambda problem, derived: problem.spectrum,
        lambda problem, derived: problem.validation,
        lambda problem, derived: derived.validation,
        lambda problem, derived: derived.spectrum,
    )
    for shape, first_read in zip(((6, 3), (3, 6), (5, 5), (7, 1)), first_reads):
        l = rng.standard_normal(shape)
        l[:, 0] *= 1e-3
        proj = random_projector(rng, shape[0], 1)
        calls.clear()
        problem = make_problem(operator=l, constraint=proj, rhs=rng.standard_normal(shape[0]))
        assert calls == []
        derived = problem.constrained(random_projector(rng, shape[0], 1))
        first_read(problem, derived)
        assert calls == [("numpy.svd", shape)]
        spectrum = problem.spectrum
        assert derived.spectrum is spectrum
        assert derived.validation.operator_norm == problem.validation.operator_norm
        assert calls == [("numpy.svd", shape)]
        u, s, vt = spectrum.vectors, spectrum.singular_values, spectrum.right
        assert u.shape == (shape[0], shape[0])
        assert_allclose(u.T @ u, np.eye(shape[0]), atol=1e-14)
        assert_allclose((u[:, : s.size] * s) @ vt, l, atol=1e-14)
        assert_allclose((u * spectrum.gram_values) @ u.T, problem.gram, atol=1e-13)
        assert_allclose(s, np.linalg.svd(l, compute_uv=False), rtol=1e-14)
        assert problem.validation.gram_symmetry_defect == 0.0
        assert problem.validation.gram_min_eigenvalue == np.min(spectrum.gram_values)
        assert problem.validation.representable_rank == min(shape)
        with pytest.raises(ValueError):
            u[0, 0] = 1.0
    g = np.diag([2.0, 1.0, 0.0])
    proj = random_projector(rng, 3, 1)
    gram_only = make_problem(gram_matrix=g, constraint=proj, rhs=np.ones(3), control_dim=2)
    assert gram_only.spectrum.singular_values is None
    assert_allclose(gram_only.spectrum.gram_values, [0.0, 1.0, 2.0], atol=1e-15)
    assert gram_only.validation.representable_rank == 2


def test_gram_view_shares_the_equation(monkeypatch):
    """The Gram-only view keeps G and h, drops L, and is decomposed by one eigh(G)."""
    rng = np.random.default_rng(31)
    l = rng.standard_normal((6, 4))
    problem = make_problem(operator=l, constraint=random_projector(rng, 6, 2), rhs=rng.standard_normal(6))
    calls = record_linalg_calls(monkeypatch)
    view = problem.gram_view()
    assert calls == [("numpy.eigh", (6, 6))]
    assert view.operator is None
    assert view.gram is problem.gram and view.rhs is problem.rhs
    assert view.constraint is problem.constraint
    spectrum = view.spectrum
    assert spectrum.singular_values is None
    assert_allclose((spectrum.vectors * spectrum.gram_values) @ spectrum.vectors.T, problem.gram, atol=1e-13)
    assert calls == [("numpy.eigh", (6, 6))]
    assert view.gram_view() is view


def test_gram_overflow_is_rejected_before_any_decomposition(monkeypatch):
    """A finite G whose bound max_i sum_j |G_ij| on lambda_max overflows is rejected unfactored.

    Here G = c [[1, 1/2], [1/2, 1/2]] with c = 1.3e308: its entries and its
    largest eigenvalue (about 1.31 c) are finite, but the row-sum bound 1.5 c
    is not, so the check is stricter than a finite spectrum.
    """
    calls = record_linalg_calls(monkeypatch)
    l = np.sqrt(1.3e308) * np.array([[1.0, 0.0], [0.5, 0.5]])
    g = l @ l.T
    assert np.all(np.isfinite(g))
    assert np.all(np.isfinite(np.linalg.svd(l, compute_uv=False) ** 2))
    calls.clear()
    proj = make_projector([np.array([1.0, 0.0])])
    with pytest.raises(ValidationError, match="overflows"):
        make_problem(operator=l, constraint=proj, rhs=np.ones(2))
    assert calls == []


def test_make_problem_rejects_bad_dims():
    l = np.eye(3)
    proj = make_projector([np.eye(3)[:, 0]])
    with pytest.raises(ValidationError):
        make_problem(operator=l, constraint=proj, rhs=np.ones(2))
    with pytest.raises(ValidationError):
        make_problem(operator=np.eye(2), constraint=proj, rhs=np.ones(3))


def test_make_problem_rejects_asymmetric_gram():
    proj = make_projector([np.eye(2)[:, 0]])
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        make_problem(gram_matrix=bad, constraint=proj, rhs=np.ones(2), control_dim=2)


def test_make_problem_rejects_indefinite_gram():
    proj = make_projector([np.eye(2)[:, 0]])
    with pytest.raises(ValidationError):
        make_problem(gram_matrix=np.diag([1.0, -0.5]), constraint=proj, rhs=np.ones(2), control_dim=2)


def test_make_problem_gram_only_needs_control_dim():
    proj = make_projector([np.eye(2)[:, 0]])
    with pytest.raises(ValidationError):
        make_problem(gram_matrix=np.eye(2), constraint=proj, rhs=np.ones(2))


def test_make_problem_operator_gram_consistency():
    proj = make_projector([np.eye(2)[:, 0]])
    l = np.eye(2)
    with pytest.raises(ValidationError):
        make_problem(operator=l, gram_matrix=2.0 * np.eye(2), constraint=proj, rhs=np.ones(2))
    # consistent pair passes
    problem = make_problem(operator=l, gram_matrix=np.eye(2), constraint=proj, rhs=np.ones(2))
    assert problem.operator is not None


def test_make_problem_raw_constraint_flagged():
    raw = np.array([[0.0, 1.0], [0.0, 0.0]])
    problem = make_problem(operator=np.eye(2), constraint=raw, rhs=np.ones(2))
    assert not problem.constraint_is_projector
    assert problem.validation.constraint_supplied_raw
    assert not problem.validation.constraint_is_projector
    assert_allclose(problem.constraint_matrix, raw, atol=0)
    assert_allclose(np.eye(2) - problem.constraint_matrix, np.eye(2) - raw, atol=0)


def test_raw_constraint_is_measured_when_validation_is_read(monkeypatch):
    """make_problem runs no projector check on a raw constraint; validation measures it on read."""
    calls = record_linalg_calls(monkeypatch)
    for raw, is_projector in ((np.array([[0.0, 1.0], [0.0, 0.0]]), False), (np.diag([1.0, 0.0]), True)):
        for source in ({"operator": np.diag([2.0, 1.0])}, {"gram_matrix": np.diag([4.0, 1.0]), "control_dim": 2}):
            calls.clear()
            problem = make_problem(constraint=raw, rhs=np.ones(2), **source)
            assert not [name for name, _shape in calls if name.endswith("svd")]
            expected = projector_defects(raw)
            record = problem.validation
            assert record.constraint_symmetry_defect == expected.symmetry_defect
            assert record.constraint_idempotency_defect == expected.idempotency_defect
            assert record.constraint_is_projector is expected.is_orthogonal_projector is is_projector
            assert record.constraint_supplied_raw
            assert problem.constraint_is_projector is is_projector
            posed = problem.constrained(make_projector([[1.0, 0.0]])).validation
            assert posed.constraint_is_projector and not posed.constraint_supplied_raw


def test_raw_constraint_checks_run_no_svd(monkeypatch):
    """Reading validation or constraint_is_projector on a raw constraint decomposes nothing:
    no field reads the constraint's rank, the one fact of projector_defects that needs an SVD."""
    raw = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    problem = make_problem(operator=np.diag([3.0, 2.0, 1.0]), constraint=raw, rhs=np.ones(3))
    problem.spectrum
    calls = record_linalg_calls(monkeypatch)
    record = problem.validation
    assert problem.constraint_is_projector and record.constraint_is_projector
    assert calls == []


def test_make_problem_rejects_nonfinite():
    proj = make_projector([np.eye(2)[:, 0]])
    h = np.array([1.0, np.nan])
    with pytest.raises(ValidationError):
        make_problem(operator=np.eye(2), constraint=proj, rhs=h)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_problem(operator=np.eye(2), constraint=make_projector([[1.0, 0.0]]), rhs="abc"),
        lambda: make_problem(operator=np.eye(2), constraint=make_projector([[1.0, 0.0]]), rhs=[[1], [2, 3]]),
        lambda: make_projector([["a", "b"]]),
        lambda: make_projector(5),
        lambda: make_projector([], dim=2.5),
        lambda: AlphaSchedule(alpha0="x"),
        lambda: AlphaSchedule(ratio="x"),
        lambda: Tolerances(oracle_tol="x"),
        lambda: solve_regularized("x", small_problem()),
        lambda: diagonal_steps(alpha0="x"),
    ],
    ids=["string-rhs", "ragged-rhs", "string-basis", "int-basis", "float-dim", "string-alpha0",
         "string-ratio", "string-oracle_tol", "string-alpha", "string-diagonal-alpha0"],
)
def test_non_numeric_input_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: gram_representable(np.eye(1), control_dim=True),
        lambda: make_problem(gram_matrix=np.eye(1), constraint=np.eye(1), rhs=np.ones(1), control_dim=True),
        lambda: coordinate_family(True),
        lambda: family_projector(coordinate_family(2), True),
        lambda: midpoint_grid(True),
        lambda: AlphaSchedule(count=True),
        lambda: build_scenario("rank_deficient_gamma", dimU=True),
        lambda: make_projector([], dim=True),
        lambda: Tolerances(rank_tol=True),
        lambda: AlphaSchedule(alpha0=True),
        lambda: Tolerances(decision_tol=True),
    ],
    ids=["gram_representable", "make_problem", "coordinate_family", "family_projector",
         "midpoint_grid", "AlphaSchedule", "build_scenario", "make_projector", "Tolerances",
         "AlphaSchedule-alpha0", "decide"],
)
def test_bool_is_not_a_positive_integer(call):
    with pytest.raises(ValidationError, match="True"):
        call()


def test_constrained_reposes_constraint():
    rng = np.random.default_rng(23)
    l = rng.standard_normal((4, 4))
    proj = random_projector(rng, 4, 2)
    problem = make_problem(operator=l, constraint=proj, rhs=rng.standard_normal(4))
    other = random_projector(rng, 4, 3)
    posed = problem.constrained(other)
    assert posed.constraint is other
    assert_allclose(posed.gram, problem.gram, atol=0)
    assert posed is not problem


def test_problem_arrays_read_only():
    proj = make_projector([np.eye(2)[:, 0]])
    problem = make_problem(operator=np.eye(2), constraint=proj, rhs=np.ones(2))
    with pytest.raises(ValueError):
        problem.rhs[0] = 5.0
    with pytest.raises(ValueError):
        problem.gram[0, 0] = 5.0
