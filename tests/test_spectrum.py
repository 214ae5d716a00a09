"""Closed-form spectra: a monomial L and a diagonal G are decomposed from their entries.

The closed forms are exact, so they are held to exact orthogonality and
exact reconstruction, and to LAPACK's singular values within its own
accuracy. Their orthogonal factors are signed permutations, and a monomial L
and its diagonal Gram matrix are kept as their entries too: they are read
here through ``np.asarray``, every product the solvers take with them must
equal the product with that dense matrix bit for bit, and the reports must
run without ever making it. One entry off the pattern
sends the input to LAPACK. End to end, every catalog scenario (each takes a
closed form) must answer as its copy with H rotated by a dense orthogonal R
does (that copy takes LAPACK).
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finapprox import (
    ValidationError,
    alpha_sweep,
    build_scenario,
    decide,
    gram,
    gram_representable,
    make_problem,
    make_projector,
    range_oracle,
    scenario_names,
)
from finapprox.cli import main
from finapprox.hilbert import _gram, _Monomial
from helpers import random_orthonormal, record_linalg_calls, rotate_problem

EPS = np.finfo(float).eps
# a pool of repeated magnitudes makes ties; the range keeps every square finite and normal
MAGNITUDES = st.one_of(st.sampled_from([1e-150, 1.0, 3.0, 1e150]), st.floats(1e-150, 1e150))
# and squares that overflow to inf, are subnormal, or underflow to zero
EXTREME_MAGNITUDES = st.one_of(MAGNITUDES, st.sampled_from([1e160, 1e-160, 1e-170]), st.floats(1e-170, 1e170))


@st.composite
def monomial_matrices(draw, square=False, min_rank=0, max_dim=8, magnitudes=MAGNITUDES):
    """An m x n matrix, m and n from 1 to ``max_dim``, whose nonzeros sit on a random
    partial permutation: signed values with ties, and zero rows and columns. A
    square draw is diagonal."""
    m = draw(st.integers(1, max_dim))
    n = m if square else draw(st.integers(1, max_dim))
    rank = draw(st.integers(min(min_rank, m, n), min(m, n)))
    rows = draw(st.permutations(range(m)))[:rank]
    cols = rows if square else draw(st.permutations(range(n)))[:rank]
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=rank, max_size=rank))
    values = draw(st.lists(magnitudes, min_size=rank, max_size=rank))
    matrix = np.zeros((m, n))
    matrix[list(rows), list(cols)] = np.multiply(signs, values)
    return matrix


def _problem(operator):
    m = operator.shape[0]
    return make_problem(operator=operator, constraint=make_projector([], dim=m), rhs=np.ones(m))


def _spectrum_calls(problem):
    """Read the spectrum; return it and the dense decompositions that ran."""
    with pytest.MonkeyPatch.context() as mp:
        calls = record_linalg_calls(mp)
        spectrum = problem.spectrum
    return spectrum, calls


@settings(max_examples=300, deadline=None)
@given(monomial_matrices())
def test_monomial_svd_is_exact(l):
    m, n = l.shape
    k = min(m, n)
    spectrum, calls = _spectrum_calls(_problem(l))
    assert calls == []
    assert isinstance(spectrum.vectors, _Monomial) and isinstance(spectrum.right, _Monomial)
    u, s, vt = np.asarray(spectrum.vectors), spectrum.singular_values, np.asarray(spectrum.right)
    assert (u.shape, vt.shape) == (spectrum.vectors.shape, spectrum.right.shape)
    reference = np.linalg.svd(l, full_matrices=m > n)
    assert (u.shape, s.shape, vt.shape) == tuple(a.shape for a in reference)
    assert np.array_equal(u.T @ u, np.eye(m))
    assert np.array_equal(vt @ vt.T, np.eye(k))
    assert np.array_equal((u[:, :k] * s) @ vt, l)
    assert np.all(np.diff(s) <= 0)
    # LAPACK's small singular values are accurate relative to the largest only
    assert np.all(np.abs(s - reference.S) <= 4 * EPS * s[0])
    assert np.array_equal(spectrum.gram_values[:k], s * s)
    for factor in (spectrum.vectors, spectrum.right):
        for index in (factor.rows, factor.cols, factor.values):
            with pytest.raises(ValueError):
                index[0] = 0


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=200, deadline=None)
@example(l=np.diag([1e200, 1.0]), fortran=False)
@given(monomial_matrices(max_dim=80, magnitudes=EXTREME_MAGNITUDES), st.booleans())
def test_monomial_gram_is_the_blas_product_bit_for_bit(l, fortran):
    """G = L L^T read off a monomial L's entries equals the BLAS product bit for bit,
    sign bits, inf and subnormals included, in gram() and in the built problem; the
    problem is rejected, with the same message, exactly when that product overflows."""
    if fortran:
        l = np.asfortranarray(l)
    with np.errstate(over="ignore"):
        reference = l @ l.T
        assert _bits(gram(l)) == _bits(reference)
    if np.all(np.isfinite(reference)):
        assert _bits(_problem(l).gram) == _bits(reference)
    else:
        with pytest.raises(ValidationError) as rejected:
            _problem(l)
        assert str(rejected.value) == "the gram operator overflows: its entries or spectrum are not finite"


# finite entries with signed zeros and magnitudes from 1e-170 to 1e300, so products with a
# monomial's values overflow, underflow and turn subnormal, and zeros must come out as the
# dense product's
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e300, 1e300),
    st.builds(lambda sign, magnitude: sign * magnitude, st.sampled_from([-1.0, 1.0]), EXTREME_MAGNITUDES),
)


@settings(max_examples=300, deadline=None)
@given(
    monomial_matrices(magnitudes=EXTREME_MAGNITUDES), st.integers(1, 3), st.lists(ENTRIES, min_size=48, max_size=48),
    st.data(),
)
def test_monomial_products_match_dense_bit_for_bit(l, width, entries, data):
    """Every product the library takes with a monomial matrix equals the product with its
    dense matrix bit for bit, but for the sign of a zero that a nonzero product underflows
    to, and without a warning: a monomial L, its diagonal Gram matrix
    L L^T (whose squares may overflow or underflow) and, when that is finite, the
    closed-form factors U and V^T; each with its transpose and its column and row
    prefixes, on either side of a 1-D, 2-D or stacked operand, as ``np.matmul`` stacks.
    The operands are prefixes of one drawn list of entries."""
    monomial = _Monomial.of(l)
    assert np.array_equal(np.asarray(monomial), l)
    with np.errstate(over="ignore"):
        matrices = [monomial, _gram(monomial)]
    if np.all(np.isfinite(matrices[1].values)):  # else the problem is rejected
        spectrum = _problem(l).spectrum
        matrices += [spectrum.vectors, spectrum.right]
    r = data.draw(st.integers(0, min(l.shape)))
    for matrix in matrices:
        whole = np.asarray(matrix)
        pairs = ((matrix.T, whole.T), (matrix[:, :r], whole[:, :r]), (matrix[:r], whole[:r]))
        for factor, dense in pairs:
            assert np.array_equal(np.asarray(factor), dense)
        for factor in (matrix, matrix.T, matrix[:, :r], matrix[:, :r].T, matrix[:r], matrix[:r].T):
            dense = np.asarray(factor)
            rows, columns = factor.shape
            operands = [((columns,), False), ((columns, width), False), ((width, columns, 1), False)]
            operands += [((rows,), True), ((width, rows), True), ((width, 2, rows), True)]  # x @ factor
            for shape, left in operands:
                x = np.array(entries[: int(np.prod(shape))]).reshape(shape)
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = x @ dense if left else dense @ x
                got = x @ factor if left else factor @ x
                # a nonzero product that underflows to zero keeps its sign in an FMA kernel,
                # so only there may the sign of a zero differ
                hit = 1.0 * (x != 0)
                underflowed = (got == 0) & ((hit @ factor if left else factor @ hit) != 0)
                assert np.all(expected[underflowed] == 0)
                assert _bits(np.where(underflowed, 0.0, got)) == _bits(np.where(underflowed, 0.0, expected))
            with pytest.raises(ValueError):
                factor @ np.ones(columns + 1)


@pytest.mark.parametrize("key", [0, [0, 1], (slice(0, 1), slice(0, 1))], ids=["int", "list", "both-axes"])
def test_monomial_takes_only_a_row_or_column_slice(key):
    """A monomial matrix supports the slices its readers take, ``A[:, s]`` and ``A[s]``;
    an integer, a list or a slice of both axes raises IndexError."""
    with pytest.raises(IndexError, match="only a slice of its rows or of its columns"):
        _Monomial.of(np.eye(3))[key]


def test_reports_run_without_densifying(monkeypatch, capsys):
    """analyze, sweep, oracle and galerkin on the function-space scenario with the damping
    diagonal never materialize a monomial matrix, neither L, G = L L^T nor a closed-form
    factor: every product with one is a gather times its entries, or a scatter."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a monomial matrix was materialized")

    monkeypatch.setattr(_Monomial, "__array__", refuse)
    source = ["--scenario", "function_space_galerkin", "--param", "M=64", "--param", "operator=damping"]
    for command in ("analyze", "sweep", "oracle", "galerkin"):
        assert main([command, *source]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# finapprox v1") and captured.err == ""
    problem = build_scenario("function_space_galerkin", M=64, operator="damping").problem
    for read in ("operator", "gram"):
        with pytest.raises(AssertionError, match="materialized"):
            getattr(problem, read)


def test_monomial_svd_order_is_stable():
    """s descends with ties in row order; U and V^T then take the unused rows and columns."""
    l = np.array([[0.0, 0.0, -1.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    spectrum = _problem(l).spectrum
    assert spectrum.singular_values.tolist() == [2.0, 1.0, 1.0]
    assert np.array_equal(np.asarray(spectrum.vectors), np.eye(5)[:, [1, 0, 3, 2, 4]])
    assert np.array_equal(np.asarray(spectrum.right), [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    wide = np.zeros((3, 4))
    wide[1, 2] = -7.0
    spectrum = _problem(wide).spectrum
    assert spectrum.singular_values.tolist() == [7.0, 0.0, 0.0]
    assert np.array_equal(np.asarray(spectrum.vectors), np.eye(3)[:, [1, 0, 2]])
    right = np.asarray(spectrum.right)
    assert np.array_equal(right, [[0.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


@settings(max_examples=200, deadline=None)
@given(monomial_matrices(min_rank=1), st.data())
def test_one_entry_off_the_pattern_goes_to_lapack(l, data):
    """A second nonzero in the row or column of an entry leaves the closed form."""
    m, n = l.shape
    assume(m * n > 1)  # a 1 x 1 matrix is monomial whatever its entry
    i, j = (a.tolist() for a in np.nonzero(l))
    pick = data.draw(st.integers(0, len(i) - 1))
    if n > 1:
        l[i[pick], (j[pick] + 1) % n] = data.draw(MAGNITUDES)
    else:
        l[(i[pick] + 1) % m, j[pick]] = data.draw(MAGNITUDES)
    _spectrum, calls = _spectrum_calls(_problem(l))
    assert calls == [("numpy.svd", (m, n))]


@settings(max_examples=200, deadline=None)
@given(monomial_matrices(square=True))
def test_diagonal_gram_eigh_is_exact(d):
    """Gram-only input and the Galerkin view of a monomial L both read a diagonal G."""
    n = d.shape[0]
    g = np.abs(d)  # positive semidefinite, with ties and zeros
    with pytest.MonkeyPatch.context() as mp:
        calls = record_linalg_calls(mp)
        gram_only = make_problem(gram_matrix=g, constraint=make_projector([], dim=n), rhs=np.ones(n), control_dim=n)
        view = _problem(d).gram_view()
        spectra = (gram_only.spectrum, view.spectrum)
    assert calls == []
    for spectrum, gram_matrix in zip(spectra, (g, d @ d.T)):
        assert isinstance(spectrum.vectors, _Monomial)
        u, lam = np.asarray(spectrum.vectors), spectrum.gram_values
        assert np.all(np.diff(lam) >= 0)
        assert np.array_equal(u.T @ u, np.eye(n))
        assert np.array_equal((u * lam) @ u.T, gram_matrix)
        assert np.array_equal(np.argmax(u, axis=0), np.argsort(np.diagonal(gram_matrix), kind="stable"))


def test_diagonal_gram_keeps_its_sign_and_leaves_on_one_off_diagonal_pair():
    """A negative diagonal is still rejected; a symmetric off-diagonal pair goes to LAPACK."""
    g = np.diag([2.0, -1.0, 0.0])
    report = gram_representable(g, 3)
    assert report.min_eigenvalue == -1.0 and not report.representable
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        make_problem(gram_matrix=g, constraint=make_projector([], dim=3), rhs=np.ones(3), control_dim=3)
    g = np.diag([2.0, 1.0, 1.0])
    g[0, 2] = g[2, 0] = 0.5
    with pytest.MonkeyPatch.context() as mp:
        calls = record_linalg_calls(mp)
        make_problem(gram_matrix=g, constraint=make_projector([], dim=3), rhs=np.ones(3), control_dim=3)
    assert calls == [("numpy.eigh", (3, 3))]


CASES = [(name, {}) for name in scenario_names() if name != "function_space_galerkin"] + [
    ("function_space_galerkin", {"M": 16, "operator": operator}) for operator in ("identity", "damping")
]


def _answer(problem):
    """Verdict, oracle verdicts (None without an operator) and the sweep's records."""
    report = alpha_sweep(problem)
    oracle = None
    if problem.operator is not None:
        decision = range_oracle(problem)
        oracle = (decision.decomposed_solvable, decision.constrained_solvable, decision.agree)
    return decide(report).verdict, oracle, report.records


@pytest.mark.parametrize("name,params", CASES)
def test_closed_form_and_lapack_paths_agree(name, params):
    """Each scenario answers as its rotated copy does: rotating H changes no answer.

    The scenario takes the closed form and the copy takes LAPACK. Verdict,
    both oracle verdicts and their agreement are equal, and every record's
    norms agree within 1e-9 ||h||.
    """
    with pytest.MonkeyPatch.context() as mp:
        calls = record_linalg_calls(mp)
        plain = build_scenario(name, **params).problem
        plain.spectrum
        assert calls == []
        n = plain.ambient_dim
        r = random_orthonormal(np.random.default_rng(n), n, n)
        calls.clear()
        rotated = rotate_problem(plain, r)
        rotated.spectrum
        assert [c[0] for c in calls] == ["numpy.eigh" if plain.operator is None else "numpy.svd"]
    verdict, oracle, records = _answer(plain)
    rotated_verdict, rotated_oracle, rotated_records = _answer(rotated)
    assert rotated_verdict == verdict
    assert rotated_oracle == oracle
    bound = 1e-9 * np.linalg.norm(plain.rhs)
    assert len(records) == len(rotated_records)
    for record, other in zip(records, rotated_records):
        assert record.singular == other.singular
        for field in ("norm_indicator", "norm_residual", "norm_constraint_residual"):
            a, b = getattr(record, field), getattr(other, field)
            assert (np.isnan(a) and np.isnan(b)) or abs(a - b) <= bound
