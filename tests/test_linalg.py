"""Exact rational linear algebra underneath everything else."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflow import linalg
from tnnflow.totpos import sample_params, sample_positive, standard_word_w0

fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def rational_matrices(n):
    return st.lists(
        st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: np.array([[Fraction(x) for x in r] for r in rows], dtype=object))


def test_rational_matrix_roundtrip():
    m = linalg.rational_matrix([[1, 2], [3, "1/2"]])
    assert m[1, 1] == Fraction(1, 2)
    assert linalg.is_rational_array(m)
    f = linalg.to_float(m)
    assert f.dtype == np.float64 and f[1, 1] == 0.5


def test_det_known_values():
    m = linalg.rational_matrix([[1, 2], [3, 4]])
    assert linalg.det(m) == Fraction(-2)
    assert linalg.det(linalg.rational_identity(5)) == 1
    # Vandermonde on 1, 2, 3: product of differences = 2
    v = linalg.rational_matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    assert linalg.det(v) == 2
    # plain ints stay exact: the pivot 3 would otherwise divide into floats
    ints = np.array([[3, 1, 2], [1, 7, 1], [2, 5, 11]], dtype=object)
    assert type(linalg.det(ints)) is Fraction and linalg.det(ints) == 189


@settings(max_examples=40, deadline=None)
@given(rational_matrices(3), rational_matrices(3))
def test_det_is_multiplicative(a, b):
    assert linalg.det(a @ b) == linalg.det(a) * linalg.det(b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(rational_matrices))
def test_inverse_exact(m):
    n = m.shape[0]
    if linalg.det(m) == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.inv(m)
    else:
        inverse = linalg.inv(m)
        assert inverse.shape == (n, n) and all(type(x) is Fraction for x in inverse.flat)
        assert np.equal(m @ inverse, linalg.rational_identity(n)).all()
    singular = m.copy()
    singular[-1] = 0 if n == 1 else 3 * singular[0]
    with pytest.raises(ZeroDivisionError):
        linalg.inv(singular)


def test_inverse_pivots_past_a_zero_and_returns_fractions():
    # nonsingular, yet the first pivot is 0: a row swap is needed, not an error
    for rows in ([[0, 1], [1, 0]], [[0, 2, 1], [3, 0, 1], [1, 1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]):
        m = np.array(rows, dtype=object)
        inverse = linalg.inv(m)
        assert all(type(x) is Fraction for x in inverse.flat)
        assert np.equal(m @ inverse, linalg.rational_identity(len(rows))).all()
    with pytest.raises(ZeroDivisionError):
        linalg.inv(np.array([[0, 1], [0, 2]], dtype=object))


def test_inverse_holds_fractions_where_the_last_pivot_is_negative():
    """``inv`` is exact also where the last Bareiss pivot is negative (one row
    swap and a -1 pivot) and where the columns have denominators: every entry
    is a ``Fraction`` and the product with the matrix is the identity."""
    for rows in ([[0, 1], [-1, 0]], [[0, 2, 1], [3, 0, 1], [1, 1, 0]], [["1/2", 0], ["1/3", "-5/7"]]):
        m = linalg.rational_matrix(rows)
        inverse = linalg.inv(m)
        assert all(type(x) is Fraction for x in inverse.flat)
        assert np.equal(m @ inverse, linalg.rational_identity(len(rows))).all()
        assert np.equal(inverse @ m, linalg.rational_identity(len(rows))).all()


def _minor(a, rows, cols) -> Fraction:
    """One minor, as the determinant of its submatrix."""
    return linalg.det(a[np.ix_(list(rows), list(cols))])


def test_minor_and_all_minors():
    m = linalg.rational_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert _minor(m, (0, 1), (0, 1)) == Fraction(-3)
    minors = list(linalg.all_minors(m))
    # sum over k of C(3,k)^2 minors
    assert len(minors) == 9 + 9 + 1
    assert all(isinstance(v, Fraction) for _, _, v in minors)
    full = [v for rows, cols, v in minors if len(rows) == 3]
    assert full == [linalg.det(m)]


@st.composite
def rectangular_matrices(draw):
    """1x1 to 5x5, square or not, with plain ints, negatives and zero rows/columns."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-9, 9), fractions)
    a = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)), dtype=object)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        a[i, :] = 0
    for j in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        a[:, j] = 0
    return a


@st.composite
def square_matrices(draw):
    """0x0 to 5x5 with plain ints, negatives and Fractions, some rows zeroed or repeated."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-9, 9), fractions)
    a = np.empty((n, n), dtype=object)
    for i in range(n):
        a[i] = draw(st.lists(entry, min_size=n, max_size=n))
    if n:
        rows = st.integers(0, n - 1)
        for i in draw(st.sets(rows, max_size=2)):
            a[i] = 0
        for i, j in draw(st.lists(st.tuples(rows, rows), max_size=2)):
            a[i] = a[j]
    return a


@settings(max_examples=200, deadline=None)
@given(a=square_matrices())
def test_det_matches_leibniz_oracle(a, leibniz_det):
    got = linalg.det(a)
    assert type(got) is Fraction
    assert got == leibniz_det(a)


def _leading_levels(columns: list, scales: list, kmax: int) -> tuple[list, list]:
    """The minor kernel on leading columns, for a stack of one: per level k = 1..kmax,
    the ints of the minors on every k-subset of rows, and their one denominator."""
    levels = list(linalg._minor_levels(*linalg._scaled_stack([(columns, scales)]), kmax, leading=True))
    return [values[0, :, 0].tolist() for values, _ in levels], [dens[0, 0] for _, dens in levels]


@settings(max_examples=100, deadline=None)
@given(a=square_matrices())
def test_leading_minors_match_leibniz_oracle(a, leibniz_det):
    n = a.shape[0]
    levels, dens = _leading_levels(*linalg._scaled_columns(a), n)
    assert len(levels) == len(dens) == n
    for k, (level, den) in enumerate(zip(levels, dens), 1):
        rows_k = list(itertools.combinations(range(n), k))
        assert len(level) == len(rows_k) and all(type(s) is int for s in level)
        assert [Fraction(s, den) for s in level] == [leibniz_det(a[np.ix_(r, range(k))]) for r in rows_k]


def test_leading_minors_scale_each_column_by_its_own_denominators():
    """Level k is over the product of the first k column LCMs, not over the
    k-th power of one LCM D of the whole matrix: on the n = 5 lower sample of
    ``default_rng(1)``, 462 bits at k = 3, where D**3 has 628."""
    u = sample_positive(sample_params(standard_word_w0(5), np.random.default_rng(1)), "lower").entries
    _, dens = _leading_levels(*linalg._scaled_columns(u), 4)
    scales = [math.lcm(*(x.denominator for x in u[:, c])) for c in range(5)]
    assert dens == [math.prod(scales[:k]) for k in range(1, 5)]
    assert dens[2].bit_length() == 462
    assert (math.lcm(*(x.denominator for x in u.flat)) ** 3).bit_length() == 628


@settings(max_examples=150, deadline=None)
@given(a=rectangular_matrices())
def test_all_minors_matches_elimination_oracle(a, leibniz_det):
    """Every minor from the Laplace pass equals the permutation sum, and so does its ``det``."""
    n, m = a.shape
    expected = [
        (rows, cols, leibniz_det(a[np.ix_(rows, cols)]))
        for k in range(1, min(n, m) + 1)
        for rows in itertools.combinations(range(n), k)
        for cols in itertools.combinations(range(m), k)
    ]
    got = list(linalg.all_minors(a))
    assert got == expected
    assert all(type(v) is Fraction for _, _, v in got)
    assert [_minor(a, rows, cols) for rows, cols, _ in got] == [v for _, _, v in got]


def test_rank(exact_rank):
    assert exact_rank(linalg.rational_identity(4)) == 4
    m = linalg.rational_matrix([[1, 2], [2, 4]])
    assert exact_rank(m) == 1
    assert exact_rank(linalg.rational_zeros(3, 3)) == 0


@settings(max_examples=30, deadline=None)
@given(m=rational_matrices(3))
def test_rank_matches_float_rank(m, exact_rank):
    assert exact_rank(m) == np.linalg.matrix_rank(linalg.to_float(m), tol=1e-9)


def test_reduce_rows_gives_echelon_basis():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2, 2: 1}, {0: 3, 1: 6, 2: Fraction(1)}]
    assert linalg.reduce_rows(rows) == [(0, {0: 1, 1: 2}), (2, {2: 1})]
    assert linalg.reduce_rows([{0: Fraction(0)}, {}]) == []
    basis = linalg.reduce_rows([{1: 3, 2: 1}, {0: 1, 1: 1}])
    assert basis == [(0, {0: 1, 2: Fraction(-1, 3)}), (1, {1: 1, 2: Fraction(1, 3)})]
    assert all(type(x) is Fraction for _, row in basis for x in row.values())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 7), fractions, max_size=5), max_size=6))
def test_reduce_rows_is_reduced_echelon_and_spans_its_input(rows):
    basis = linalg.reduce_rows(rows)
    pivots = [p for p, _ in basis]
    assert pivots == sorted(set(pivots))
    for p, row in basis:
        assert min(row) == p and row[p] == 1
        assert all(type(x) is Fraction and x != 0 for x in row.values())
        assert not set(pivots) & set(row) - {p}
    # every input row reduces to zero: its coordinates are its pivot entries
    for row in rows:
        residual = {c: x for c, x in row.items() if x != 0}
        for p, b in basis:
            x = row.get(p, 0)
            for c, y in b.items():
                residual[c] = residual.get(c, 0) - x * y
        assert not any(residual.values())
    # and no more than the input spans: the basis is as large as its rank,
    # and the reduced echelon basis does not depend on the order of the rows
    dense = np.array([[float(row.get(c, 0)) for c in range(8)] for row in rows]).reshape(-1, 8)
    assert len(basis) == np.linalg.matrix_rank(dense, tol=1e-9)
    assert linalg.reduce_rows(rows[::-1]) == basis


# sparse rows over columns 0..9: the same few rows recur, entries may be
# zero or negative, and denominators run up to 10**12
_big_fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12)
_sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 9), st.one_of(st.just(Fraction(0)), fractions, _big_fractions), max_size=6),
    max_size=5,
).flatmap(lambda rows: st.lists(st.sampled_from(rows) if rows else st.just({}), max_size=10).map(lambda extra: rows + extra))


@settings(max_examples=150, deadline=None)
@given(rows=_sparse_rows)
def test_reduce_rows_matches_the_fraction_oracle(rows, fraction_reduce_rows):
    """The integer echelon gives the Fraction elimination's basis, entry for entry."""
    want = fraction_reduce_rows(rows)
    got = linalg.reduce_rows(rows)
    assert got == want
    assert all(type(x) is Fraction for _, row in got for x in row.values())
    # the integer pass itself: primitive int rows with a positive pivot entry
    scaled = linalg._scaled_echelon(
        [{c: x.numerator * math.lcm(1, *(y.denominator for y in row.values())) // x.denominator
          for c, x in row.items()} for row in rows]
    )
    assert sorted(scaled) == [p for p, _ in want]
    for p, row in want:
        ints = scaled[p]
        assert ints[p] > 0 and math.gcd(*ints.values()) == 1
        assert {c: Fraction(x, ints[p]) for c, x in ints.items()} == row


def test_rationalize_is_exact():
    x = np.array([0.5, 0.1, -2.25])
    r = linalg.rationalize(x)
    assert r[0] == Fraction(1, 2)
    # 0.1 is not 1/10 in binary64, and rationalize must not pretend it is
    assert r[1] == Fraction(*(0.1).as_integer_ratio())
    assert linalg.to_float(r).tolist() == x.tolist()


def test_cross3_orthogonality():
    a = linalg.rational_matrix([[1, 2, 3]])[0]
    b = linalg.rational_matrix([[4, 5, 6]])[0]
    c = linalg.cross3(a, b)
    assert sum(c[i] * a[i] for i in range(3)) == 0
    assert sum(c[i] * b[i] for i in range(3)) == 0


@st.composite
def scaled_stacks(draw):
    """One to three matrices of one n x m shape (1..5 each, square or not), of
    ints and Fractions, so that each member has column scales of its own; a
    repeated row or a zeroed column gives zero minors."""
    n, m, size = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    entry = st.one_of(st.integers(-9, 9), fractions)
    stack = []
    for _ in range(size):
        a = np.empty((n, m), dtype=object)
        for i in range(n):
            a[i] = draw(st.lists(entry, min_size=m, max_size=m))
        if n > 1 and draw(st.booleans()):
            a[draw(st.integers(1, n - 1))] = a[0]
        for j in draw(st.sets(st.integers(0, m - 1), max_size=1)):
            a[:, j] = 0
        stack.append(a)
    return stack


def _check_minor_levels(stack, leibniz_det):
    """Every level of the kernel on the stack against the permutation sum, and
    each member's slice against the kernel on that member alone."""
    n, m = stack[0].shape
    scaled = [linalg._scaled_columns(a) for a in stack]
    levels = list(linalg._minor_levels(*linalg._scaled_stack(scaled)))
    assert len(levels) == min(n, m)
    for k, (values, dens) in enumerate(levels, 1):
        rows_k = list(itertools.combinations(range(n), k))
        cols_k = list(itertools.combinations(range(m), k))
        assert values.shape == (len(stack), len(rows_k), len(cols_k)) and dens.shape == (len(stack), len(cols_k))
        for a, (_, scales), ints, den in zip(stack, scaled, values.tolist(), dens.tolist()):
            assert den == [math.prod(scales[c] for c in cols) for cols in cols_k]
            assert all(type(s) is int for row in ints for s in row)
            got = [[Fraction(s, d) for s, d in zip(row, den)] for row in ints]
            assert got == [[leibniz_det(a[np.ix_(rows, cols)]) for cols in cols_k] for rows in rows_k]
    for i, member in enumerate(scaled):
        for (values, dens), (alone, alone_dens) in zip(levels, linalg._minor_levels(*linalg._scaled_stack([member]))):
            assert values[i].tolist() == alone[0].tolist() and dens[i].tolist() == alone_dens[0].tolist()


@settings(max_examples=60, deadline=None)
@given(stack=scaled_stacks())
def test_minor_levels_match_leibniz_oracle_on_stacks(stack, leibniz_det):
    _check_minor_levels(stack, leibniz_det)


def test_minor_levels_on_a_rectangular_stack_and_a_stack_of_one(leibniz_det):
    """Members over different column scales, a 3 x 4 shape with zero minors (a
    zero column and two rows that agree on the other three), and a 4 x 2 stack of one."""
    a = linalg.rational_matrix([[1, "1/2", 0, "2/3"], [3, "5/4", 0, "1/6"], [1, "1/2", 0, "-7/5"]])
    b = linalg.rational_matrix([["1/3", 2, "3/7", 1], [-1, "1/9", 4, 0], [2, 3, "-1/2", "5/8"]])
    assert linalg._scaled_columns(a)[1] != linalg._scaled_columns(b)[1]
    _check_minor_levels([a, b], leibniz_det)
    values, _ = next(itertools.islice(linalg._minor_levels(*linalg._scaled_stack([linalg._scaled_columns(a)])), 1, 2))
    assert 0 in values[0, 0].tolist()  # rows (0, 1) on the zero column
    _check_minor_levels([linalg.rational_matrix([[1, 2], ["1/3", 0], [0, 0], ["-5/2", "7/11"]])], leibniz_det)


def test_all_minors_come_by_size_then_rows_then_columns():
    a = linalg.rational_matrix([[1, 2, 0, "1/2"], [3, "1/3", 4, 1], [0, 5, 6, "-2/7"]])
    keys = [(rows, cols) for rows, cols, _ in linalg.all_minors(a)]
    assert keys == sorted(keys, key=lambda key: (len(key[0]), key))
    assert len(keys) == len(set(keys)) == sum(math.comb(3, k) * math.comb(4, k) for k in range(1, 4))


@pytest.mark.parametrize("block", [1, 7, 40])
def test_minor_levels_summed_in_blocks_of_rows_are_the_same_levels(monkeypatch, block):
    """A level summed a few rows at a time, as large levels are, equals the
    level summed at once, on a stack of two 6 x 6 samples."""
    word = standard_word_w0(6)
    rng = np.random.default_rng(43)
    scaled = [linalg._scaled_columns(sample_positive(sample_params(word, rng, group=True), "group").entries)
              for _ in range(2)]
    whole = [(v.tolist(), d.tolist()) for v, d in linalg._minor_levels(*linalg._scaled_stack(scaled))]
    monkeypatch.setattr(linalg, "_BLOCK", block)
    assert [(v.tolist(), d.tolist()) for v, d in linalg._minor_levels(*linalg._scaled_stack(scaled))] == whole


def _int_det(ints) -> int:
    """The determinant of an int submatrix, by ``linalg.det`` on its ``Fraction`` image."""
    d = linalg.det(linalg.rational_matrix(ints.tolist())) if ints.size else Fraction(1)
    assert d.denominator == 1
    return d.numerator


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 5), (6, 4), (7, 7)])
def test_solid_levels_are_the_dets_of_solid_submatrices(shape):
    """Level k of the condensation kernel holds the det of every k x k block of
    contiguous rows and columns, on the column-scaled ints of a TP sample cut
    to ``shape``, whose minors are all positive, so every level comes."""
    n, m = shape
    rng = np.random.default_rng([n, m, 47])
    g = sample_positive(sample_params(standard_word_w0(7), rng, group=True), "group").entries[:n, 7 - m :]
    columns, _ = linalg._scaled_columns(g)
    ints = np.array(columns, dtype=object).reshape(m, n).T
    levels = list(linalg._solid_levels(ints))
    assert len(levels) == min(n, m)
    for k, level in enumerate(levels, 1):
        assert level.shape == (n - k + 1, m - k + 1)
        assert all(
            level[i, j] == _int_det(ints[i : i + k, j : j + k]) for i in range(n - k + 1) for j in range(m - k + 1)
        )


def test_solid_levels_end_before_dividing_by_a_zero_minor():
    """On the 5 x 5 all-ones matrix, level 2 is all zeros: level 3 still comes
    (it divides by level 1), and the walk ends before level 4, which would
    divide by level 2.  The lower mode divides only on and below the diagonal
    of a lower triangular matrix, whose solid minors above it are 0, and ends
    before a zero there is divided by."""
    levels = list(linalg._solid_levels(np.ones((5, 5), dtype=object)))
    assert [level.tolist() for level in levels] == [[[1] * 5] * 5, [[0] * 4] * 4, [[0] * 3] * 3]
    # ones on and below the diagonal: the 2-minor on rows 2, 3 and columns 1, 2 is 0,
    # and level 4 would divide by it
    lower = np.tri(5, dtype=int).astype(object)
    levels = list(linalg._solid_levels(lower, lower=True))
    assert len(levels) == 3 and levels[1][2, 1] == 0
    for k, level in enumerate(levels, 1):
        assert all(level[i, j] == _int_det(lower[i : i + k, j : j + k]) for i in range(6 - k) for j in range(6 - k))
