"""Exact rational linear algebra underneath everything else."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflow import linalg

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


@settings(max_examples=40, deadline=None)
@given(rational_matrices(3))
def test_inverse_exact(m):
    if linalg.det(m) == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.inv(m)
    else:
        assert np.equal(m @ linalg.inv(m), linalg.rational_identity(3)).all()


def test_minor_and_all_minors():
    m = linalg.rational_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert linalg.minor(m, (0, 1), (0, 1)) == Fraction(-3)
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


@settings(max_examples=150, deadline=None)
@given(rectangular_matrices())
def test_all_minors_matches_elimination_oracle(a):
    n, m = a.shape
    expected = [
        (rows, cols, linalg.minor(a, rows, cols))
        for k in range(1, min(n, m) + 1)
        for rows in itertools.combinations(range(n), k)
        for cols in itertools.combinations(range(m), k)
    ]
    got = list(linalg.all_minors(a))
    assert got == expected
    assert all(type(v) is Fraction for _, _, v in got)


def test_rank():
    assert linalg.rank(linalg.rational_identity(4)) == 4
    m = linalg.rational_matrix([[1, 2], [2, 4]])
    assert linalg.rank(m) == 1
    assert linalg.rank(linalg.rational_zeros(3, 3)) == 0


@settings(max_examples=30, deadline=None)
@given(rational_matrices(3))
def test_rank_matches_float_rank(m):
    assert linalg.rank(m) == np.linalg.matrix_rank(linalg.to_float(m), tol=1e-9)


def test_reduce_rows_gives_echelon_basis():
    rows = linalg.rational_matrix([[2, 4, 0], [1, 2, 1], [3, 6, 1]])
    basis, pivots = linalg.reduce_rows(rows)
    assert list(pivots) == [0, 2]
    assert basis[0][0] == 1 and basis[0][2] == 0
    assert basis[1][0] == 0 and basis[1][2] == 1


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
