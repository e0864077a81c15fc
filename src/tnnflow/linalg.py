"""Dense linear algebra over exact rationals.

Matrices are numpy arrays with ``dtype=object`` holding ``fractions.Fraction``
entries, so ``@`` composes exactly and every routine here is free of rounding.
Float work is delegated to numpy proper; these helpers exist for the places
where the answer must be a certificate (minor signs, ranks, echelon bases)
rather than an approximation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "rational_matrix",
    "rational_identity",
    "rational_zeros",
    "to_float",
    "rationalize",
    "is_rational_array",
    "det",
    "inv",
    "minor",
    "all_minors",
    "rank",
    "reduce_rows",
    "cross3",
]


def rational_matrix(rows) -> np.ndarray:
    """Build an object array of Fractions from any nested int/Fraction data."""
    a = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
    return a


def rational_identity(n: int) -> np.ndarray:
    a = rational_zeros(n, n)
    for i in range(n):
        a[i, i] = Fraction(1)
    return a


def rational_zeros(n: int, m: int) -> np.ndarray:
    a = np.empty((n, m), dtype=object)
    a[:] = Fraction(0)
    return a


def to_float(a: np.ndarray) -> np.ndarray:
    return np.array(a, dtype=np.float64)


def rationalize(a: np.ndarray) -> np.ndarray:
    """Exact Fraction image of a float array (binary64 values are rational)."""
    out = np.empty(a.shape, dtype=object)
    flat_in, flat_out = a.reshape(-1), out.reshape(-1)
    for k, x in enumerate(flat_in):
        flat_out[k] = Fraction(*float(x).as_integer_ratio())
    return out


def is_rational_array(a: np.ndarray) -> bool:
    return a.dtype == object


def det(a: np.ndarray) -> Fraction:
    """Exact determinant by Gaussian elimination (plain ints become Fractions)."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    m = a.copy()
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r, col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[[col, pivot_row]] = m[[pivot_row, col]]
            sign = -sign
        pivot = Fraction(m[col, col])
        result *= pivot
        for r in range(col + 1, n):
            if m[r, col] != 0:
                m[r, col:] = m[r, col:] - (m[r, col] / pivot) * m[col, col:]
    return sign * result


def inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse via Gauss-Jordan; raises on singular input."""
    n = a.shape[0]
    aug = np.concatenate([a.copy(), rational_identity(n)], axis=1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r, col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular over the rationals")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:]


def minor(a: np.ndarray, rows, cols) -> Fraction:
    sub = a[np.ix_(list(rows), list(cols))]
    return det(sub)


def all_minors(a: np.ndarray):
    """Yield ``(rows, cols, value)`` over every square minor, smallest first.

    Minors of size k come in lexicographic order of ``rows``, then of
    ``cols``, and each value is the exact ``Fraction`` that :func:`minor`
    returns.  The pass runs on integers: ``a`` is scaled by the LCM ``D`` of
    its denominators, each k-minor of the scaled matrix is a Laplace
    expansion along its first row over the (k-1)-minors of the level before,
    and the yielded value is ``s / D**k``.  That is sum_k C(n,k) C(m,k) k
    integer multiply-adds in all.  Only the levels k-1 and k are alive at
    once; the largest level of an n x n matrix holds C(n, n//2)**2 ints,
    63,504 at n = 10.
    """
    n, m = a.shape
    entries = [[Fraction(x) for x in row] for row in a.tolist()]
    scale = math.lcm(1, *(x.denominator for row in entries for x in row))
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in entries]
    prev_rows, prev_cols, prev = [()], [()], [[1]]
    for k in range(1, min(n, m) + 1):
        row_index = {r: j for j, r in enumerate(prev_rows)}
        col_index = {c: j for j, c in enumerate(prev_cols)}
        rows_k = list(itertools.combinations(range(n), k))
        cols_k = list(itertools.combinations(range(m), k))
        # expansion terms of each column set: (sign, column, index of the rest)
        terms = [
            [((-1) ** j, c, col_index[cols[:j] + cols[j + 1 :]]) for j, c in enumerate(cols)]
            for cols in cols_k
        ]
        denom = scale**k
        level = []
        for rows in rows_k:
            top, below = ints[rows[0]], prev[row_index[rows[1:]]]
            values = []
            for cols, expansion in zip(cols_k, terms):
                s = sum(sign * top[c] * below[rest] for sign, c, rest in expansion)
                values.append(s)
                yield rows, cols, Fraction(s, denom)
            level.append(values)
        prev_rows, prev_cols, prev = rows_k, cols_k, level


def rank(a: np.ndarray) -> int:
    """Exact rank via row reduction."""
    if a.size == 0:
        return 0
    reduced, pivots = reduce_rows([a[i, :] for i in range(a.shape[0])])
    return len(pivots)


def reduce_rows(rows):
    """Reduced row echelon basis of the span of ``rows`` (object Fractions).

    Returns ``(basis, pivots)`` with basis rows sorted by pivot column, each
    pivot entry 1, and pivot columns cleared in all other rows.
    """
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    for row in rows:
        v = row.copy()
        for b, p in zip(basis, pivots):
            if v[p] != 0:
                v = v - v[p] * b
        nz = next((j for j in range(v.shape[0]) if v[j] != 0), None)
        if nz is None:
            continue
        v = v / v[nz]
        for k, b in enumerate(basis):
            if b[nz] != 0:
                basis[k] = b - b[nz] * v
        basis.append(v)
        pivots.append(nz)
    order = sorted(range(len(basis)), key=lambda k: pivots[k])
    return [basis[k] for k in order], [pivots[k] for k in order]


def cross3(u, v) -> np.ndarray:
    """Cross product of two length-3 vectors, exact for Fraction input."""
    return np.array(
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ],
        dtype=object,
    )
