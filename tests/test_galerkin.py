"""Subspace families, level projectors, and diagonal sweeps."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finapprox import (
    AlphaSchedule,
    ValidationError,
    coordinate_family,
    diagonal_steps,
    family_projector,
    galerkin_sweep,
    make_problem,
    make_projector,
    midpoint_grid,
    orthonormal_columns,
    sample_midpoint,
    sine_family,
    strong_convergence_probe,
)
from finapprox.galerkin import SubspaceFamily


def test_midpoint_grid_values():
    grid = midpoint_grid(4)
    assert_allclose(grid, [0.125, 0.375, 0.625, 0.875], atol=0)
    with pytest.raises(ValidationError):
        midpoint_grid(0)


def test_sample_midpoint_normalization():
    """The constant function embeds with norm exactly one."""
    ones = sample_midpoint(lambda x: np.ones_like(x), 64)
    assert_allclose(np.linalg.norm(ones), 1.0, rtol=1e-14)
    # discrete inner product of x with 1 approximates the integral 1/2
    linear = sample_midpoint(lambda x: x, 64)
    assert_allclose(linear @ ones, 0.5, atol=1e-12)


def test_sample_midpoint_rejects_a_wrong_shape():
    with pytest.raises(ValidationError, match="returned shape"):
        sample_midpoint(lambda x: np.ones((x.size, 2)), 8)


def sine_samples(m, max_n):
    """Constant plus sine modes 1..max_n on the midpoint grid, sampled one mode at a time."""
    x = midpoint_grid(m)
    scale = 1.0 / np.sqrt(float(m))
    samples = np.empty((m, max_n + 1))
    samples[:, 0] = scale
    for k in range(1, max_n + 1):
        samples[:, k] = np.sin(2.0 * np.pi * k * x) * scale
    return samples


def test_sine_family_levels():
    family = sine_family(64)
    assert family.dim == 64
    assert family.max_n == 31
    assert family.sizes == tuple(range(2, 33))
    assert family_projector(family, 3).rank == 4
    # midpoint sampling keeps distinct full-period sines discretely orthogonal,
    # so the basis is the samples normalized: 1 and sqrt(2) sin(2 pi k x)
    samples = sine_samples(64, 31)
    assert_allclose(family.basis, samples / np.linalg.norm(samples, axis=0), rtol=0, atol=1e-13)
    assert not family.basis.flags.writeable
    with pytest.raises(ValidationError):
        family_projector(family, 32)
    with pytest.raises(ValidationError):
        sine_family(3)
    # coarsest legal grid: sampled sines stay independent only up to n = 1
    assert sine_family(4).max_n == 1
    with pytest.raises(ValidationError):
        family_projector(sine_family(4), 2)


def test_sine_family_matches_per_mode_loop():
    """The closed-form basis is the per-mode samples, each normalized, to rounding."""
    for m in (4, 5, 63, 1024, 2048):
        family = sine_family(m)
        samples = sine_samples(m, family.max_n)
        assert_allclose(family.basis, samples / np.linalg.norm(samples, axis=0), rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [4, 5, 63, 256])
def test_sine_family_is_the_per_element_formula_bit_for_bit(m):
    """Entry (row, j) is 1/sqrt(M) in column 0 and sqrt(2/M) sin(pi r / M) with
    r = j (2 row + 1) mod 2M elsewhere, each evaluated on its own; the table the
    family gathers from gives these bits exactly."""
    basis = sine_family(m).basis
    expected = np.empty_like(basis)
    for row in range(m):
        expected[row, 0] = 1.0 / math.sqrt(m)
        for j in range(1, basis.shape[1]):
            r = (2 * row + 1) * j % (2 * m)
            expected[row, j] = math.sin(r * (math.pi / m)) * math.sqrt(2.0 / m)
    assert basis.tobytes() == expected.tobytes()


def test_coordinate_family_levels():
    family = coordinate_family(5)
    assert family.max_n == 5
    assert family.sizes == (1, 2, 3, 4, 5)
    assert np.array_equal(family.basis, np.eye(5))
    assert_allclose(family_projector(family, 2).basis, np.eye(5)[:, :2], atol=0)


@pytest.mark.parametrize(
    "basis, sizes",
    [
        pytest.param(np.eye(4), (1, 2, 5), id="exceeding"),
        pytest.param(np.eye(4), (1, 2, 3), id="short"),
        pytest.param(np.eye(4), (2, 4, 3), id="falling"),  # a level that loses columns is no prefix
        pytest.param(np.eye(4), (0, 4), id="empty-first"),
        pytest.param(np.eye(4), (), id="no-levels"),
        pytest.param(np.eye(4), (1.5, 4), id="non-integer"),
        pytest.param(np.ones(4), (1,), id="one-dimensional"),
        pytest.param(np.full((4, 1), np.nan), (1,), id="non-finite"),
    ],
)
def test_subspace_family_rejects_bad_shapes_and_sizes(basis, sizes):
    with pytest.raises(ValidationError):
        SubspaceFamily(basis=basis, sizes=sizes, description="malformed")


def test_family_levels_share_the_top_level():
    """The top level is the family's own array; a proper prefix is a contiguous copy of its columns."""
    family = sine_family(64)
    assert np.shares_memory(family_projector(family, family.max_n).basis, family.basis)
    level = family_projector(family, 5).basis
    assert level.flags.c_contiguous and not level.flags.writeable
    assert not np.shares_memory(level, family.basis)
    assert np.array_equal(level, family.basis[:, :6])
    repeated = SubspaceFamily(basis=np.eye(3), sizes=(1, 1, 3), description="a level repeated")
    assert family_projector(repeated, 2).rank == 1


def test_family_projector_ranks_and_nesting():
    family = sine_family(32)
    zero = family_projector(family, 0)
    assert zero.rank == 0
    assert_allclose(zero.basis @ zero.basis.T, np.zeros((32, 32)), atol=0)
    p2 = family_projector(family, 2)
    p5 = family_projector(family, 5)
    assert p2.rank == 3 and p5.rank == 6
    # nesting: the bigger level reproduces the smaller one
    p2, p5 = p2.basis @ p2.basis.T, p5.basis @ p5.basis.T
    assert_allclose(p5 @ p2, p2, atol=1e-12)
    with pytest.raises(ValidationError):
        family_projector(family, family.max_n + 1)


def test_strong_convergence_probe_monotone():
    family = sine_family(48)
    target = family_projector(family, family.max_n)
    rng = np.random.default_rng(20260601)
    probes = [rng.standard_normal(48) for _ in range(6)]
    table = strong_convergence_probe(family, target, probes)
    assert table.shape == (family.max_n, 6)
    for j in range(6):
        column = table[:, j]
        assert np.all(column[1:] <= column[:-1] + 1e-12)
    # final level reproduces the target exactly, so the defect hits rounding
    assert np.max(table[-1]) <= 1e-12


def test_family_levels_are_basis_prefixes():
    """Orthonormalizing a column prefix gives the prefix of the full basis, bit for bit.

    Each column sees only the columns before it, so this holds at any width;
    the sine family's closed form is that basis to rounding.
    """
    family = sine_family(256)
    samples = sine_samples(256, family.max_n)
    full, dropped = orthonormal_columns(samples)
    assert dropped == []
    assert_allclose(full, family.basis, rtol=0, atol=1e-13)
    for k in (1, 2, 63, 64, 65, 100):
        basis, _ = orthonormal_columns(samples[:, :k])
        assert np.array_equal(basis, full[:, :k])
    assert np.array_equal(orthonormal_columns(np.eye(150))[0], np.eye(150))


def test_strong_convergence_probe_matches_per_level_reference():
    family = sine_family(64)
    rng = np.random.default_rng(20261018)
    probes = [rng.standard_normal(64) for _ in range(5)]
    random_target = make_projector(list(rng.standard_normal((20, 64))))
    for target in (family_projector(family, family.max_n), random_target):
        table = strong_convergence_probe(family, target, probes)
        reference = np.array(
            [
                [np.linalg.norm(family_projector(family, n).apply(x) - target.apply(x)) for x in probes]
                for n in range(1, family.max_n + 1)
            ]
        )
        assert_allclose(table, reference, rtol=0, atol=1e-12)


def test_strong_convergence_probe_validates_shapes():
    family = sine_family(16)
    target = family_projector(family, 2)
    with pytest.raises(ValidationError, match="length 15"):
        strong_convergence_probe(family, target, [np.zeros(15)])
    with pytest.raises(ValidationError, match="probe 1 contains non-finite"):
        strong_convergence_probe(family, target, [np.zeros(16), np.full(16, np.inf)])
    with pytest.raises(ValidationError, match="probe 0 contains non-finite"):
        strong_convergence_probe(family, target, [np.full(16, np.nan)])
    other = family_projector(sine_family(32), 2)
    with pytest.raises(ValidationError):
        strong_convergence_probe(family, other, [np.zeros(16)])


def test_diagonal_steps_schedule():
    steps = diagonal_steps(count=5, max_n=3)
    assert [n for n, _ in steps] == [1, 2, 3, 3, 3]
    assert_allclose([a for _, a in steps], [0.1, 0.01, 0.001, 1e-4, 1e-5], rtol=1e-12)
    unbounded = diagonal_steps(count=4)
    assert [n for n, _ in unbounded] == [1, 2, 3, 4]
    with pytest.raises(ValidationError):
        diagonal_steps(count=0)
    with pytest.raises(ValidationError):
        diagonal_steps(ratio=1.5)
    # the last alpha, alpha0 * ratio**count, is one power past AlphaSchedule(count=count)'s
    assert diagonal_steps(count=153)[-1] == (153, AlphaSchedule(count=154).values()[-1])
    with pytest.raises(ValidationError, match="alpha schedule underflows"):
        diagonal_steps(count=154)


def test_galerkin_sweep_closed_form():
    """Identity operator on R^4 with the coordinate family.

    At step (n, alpha) the constraint matches the first n coordinates, the
    costate is h there and h/(1+alpha) elsewhere, and the residual norm is
    alpha * sqrt(4 - n) / (1 + alpha) for the all-ones rhs.
    """
    target = make_projector([np.eye(4)[:, j] for j in range(4)])
    problem = make_problem(operator=np.eye(4), constraint=target, rhs=np.ones(4))
    family = coordinate_family(4)
    steps = [(1, 0.5), (2, 0.25), (3, 0.125), (4, 0.0625)]
    report = galerkin_sweep(problem, family, steps)
    assert report.rhs_norm == 2.0
    for record, (n, alpha) in zip(report.records, steps):
        assert not record.singular
        assert record.n == n and record.alpha == alpha
        expected = alpha * np.sqrt(4.0 - n) / (1.0 + alpha)
        assert_allclose(record.norm_residual, expected, atol=1e-14)
        assert record.norm_constraint_residual <= 1e-14
        # under the full target constraint the whole residual is constrained
        assert_allclose(record.norm_constraint_residual_target, expected, atol=1e-13)
    assert_allclose(report.final_norm_residual, 0.0, atol=1e-15)


def test_galerkin_sweep_repeats_exactly():
    target = make_projector([np.eye(4)[:, j] for j in range(4)])
    problem = make_problem(operator=np.eye(4), constraint=target, rhs=np.ones(4))
    family = coordinate_family(4)
    steps = diagonal_steps(count=6, max_n=4)
    first = galerkin_sweep(problem, family, steps)
    second = galerkin_sweep(problem, family, steps)
    assert first.records == second.records


def test_galerkin_sweep_dimension_mismatch():
    problem = make_problem(
        operator=np.eye(3),
        constraint=make_projector([np.eye(3)[:, 0]]),
        rhs=np.ones(3),
    )
    with pytest.raises(ValidationError):
        galerkin_sweep(problem, coordinate_family(4), [(1, 0.5)])


def test_galerkin_against_dense_reference():
    """Each diagonal step must agree with an independent dense solve."""
    rng = np.random.default_rng(20260602)
    dim = 12
    operator = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
    family = coordinate_family(dim)
    target = family_projector(family, dim)
    h = rng.standard_normal(dim)
    problem = make_problem(operator=operator, constraint=target, rhs=h)
    steps = [(2, 0.3), (5, 0.05), (9, 0.004)]
    report = galerkin_sweep(problem, family, steps)
    gram_matrix = operator @ operator.T
    for record, (n, alpha) in zip(report.records, steps):
        p_n = np.zeros((dim, dim))
        p_n[:n, :n] = np.eye(n)
        t = alpha * (np.eye(dim) - p_n) + gram_matrix
        z = np.linalg.solve(t, h)
        assert_allclose(record.norm_residual, np.linalg.norm(gram_matrix @ z - h), rtol=1e-9)
