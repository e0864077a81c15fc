"""Linear algebra over exact rationals.

Matrices are numpy arrays with ``dtype=object`` holding ``fractions.Fraction``
entries, so ``@`` composes exactly and every routine here is free of rounding.
The one echelon routine is a fraction-free pass on sparse int rows
``{column: int}``, :func:`_scaled_echelon`: the highest-weight modules of
:mod:`tnnflow.embedding` run it one weight space at a time and keep the
primitive int rows it returns.  :func:`reduce_rows` is its ``Fraction``
view on sparse rows ``{column: Fraction}``, which the cell census uses for
the exact Jacobian rank at a witness.
Float work is delegated to numpy proper; these helpers exist for the places
where the answer must be a certificate (minor signs, echelon bases) rather
than an approximation.  Determinants, inverses and minors run on
Python ints, and one ``Fraction`` is built per result entry at the end.
Every exact kernel scales each column c by the LCM ``e_c`` of its own
denominators.  Determinants and inverses run Bareiss elimination on those
ints.  All minors come from one integer Laplace pass,
:func:`_scaled_minors`: the k-minor on columns C is a plain int over
``prod(e_c for c in C)``.  Callers that only compare minors
(``tnnflow.totpos``) read it directly, :func:`all_minors` is its
``Fraction`` view, and :func:`leading_minors` its restriction to leading
columns.
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
    "all_minors",
    "leading_minors",
    "reduce_rows",
    "cross3",
]


def rational_matrix(rows) -> np.ndarray:
    """Build an object array of Fractions from any nested int/Fraction data."""
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


def rational_identity(n: int) -> np.ndarray:
    a = rational_zeros(n, n)
    np.fill_diagonal(a, Fraction(1))
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


def _scaled_columns(a) -> tuple[list, list]:
    """The columns of ``a``, column c times the LCM ``e_c`` of its denominators, as ints, and the ``e_c``.

    ``Fraction`` and ``int`` entries are used as they are; only other types
    (floats, numpy scalars) are converted, because ``Fraction(Fraction)``
    costs more than the scaling that follows.
    """
    entries = [[x if type(x) in (Fraction, int) else Fraction(x) for x in row] for row in a.tolist()]
    scales = [math.lcm(1, *(row[c].denominator for row in entries)) for c in range(a.shape[1])]
    return [[row[c].numerator * (e // row[c].denominator) for row in entries] for c, e in enumerate(scales)], scales


def _bareiss(m: list, jordan: bool) -> tuple[int, int]:
    """Bareiss elimination of int rows in place, also above each pivot if ``jordan``.

    Entries stay integer minors, so each division is exact.  Returns the last pivot
    ``d`` (0 if singular) and the sign of the row swaps; the determinant is ``sign * d``.
    """
    n, sign, prev = len(m), 1, 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            return 0, sign
        if pivot_row != k:
            m[k], m[pivot_row], sign = m[pivot_row], m[k], -sign
        for i in range(0 if jordan else k + 1, n):
            if i != k:
                m[i] = [(m[k][k] * y - m[i][k] * t) // prev for y, t in zip(m[i], m[k])]
        prev = m[k][k]
    return prev, sign


def det(a: np.ndarray) -> Fraction:
    """Exact determinant, always a ``Fraction``: Bareiss on the column-scaled ints, over ``prod(e_c)``."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    columns, scales = _scaled_columns(a)
    d, sign = _bareiss([list(row) for row in zip(*columns)], jordan=False)
    return Fraction(sign * d, math.prod(scales))


def inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse in Fractions; raises ``ZeroDivisionError`` on singular input.

    Fraction-free Gauss-Jordan takes ``[M | I]`` to ``[d I | d M^-1]`` for the
    column-scaled ints ``M = a diag(e)``, and ``a^-1 = diag(e) M^-1``: row i
    of the inverse is scaled by ``e_i``.
    """
    n = a.shape[0]
    columns, scales = _scaled_columns(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(zip(*columns))]
    d, _ = _bareiss(aug, jordan=True)
    if d == 0:
        raise ZeroDivisionError("matrix is singular over the rationals")
    out = [[Fraction(e * y, d) for y in row[n:]] for e, row in zip(scales, aug)]
    return np.array(out, dtype=object).reshape(n, n)


def _scaled_minors(a, leading: bool = False):
    """Yield ``(rows, cols, s, den)`` over every square minor, smallest first.

    Column c of ``a`` is scaled by the LCM ``e_c`` of its denominators, and
    ``s`` is the minor on ``rows`` x ``cols`` of that int matrix, so the minor
    of ``a`` itself is ``s / den`` with ``den = prod(e_c for c in cols)``.  All
    minors on one column set share ``den``: within a column set, ints compare
    as the minors do.  Minors of size k come in lexicographic order of
    ``rows``, then of ``cols``.  Each is a Laplace expansion along the last of
    its columns over the (k-1)-minors on the other columns: sum_k C(n,k)
    C(m,k) k multiply-adds in all.  Only the levels k-1 and k are alive at
    once; the largest level of an n x n matrix holds C(n, n//2)**2 ints,
    63,504 at n = 10.  With ``leading``, the last column of a k-set is bounded
    by k - 1, so the pass runs over the leading columns 0..k-1 only.
    """
    n, m = a.shape
    columns, scales = _scaled_columns(a)
    prev_rows, prev_cols, prev = [()], [((), 1)], [[1]]
    for k in range(1, min(n, m) + 1):
        row_index = {r: j for j, r in enumerate(prev_rows)}
        rows_k = list(itertools.combinations(range(n), k))
        # each column set, in lexicographic order, as (index of its first k-1
        # columns in the level below, its last column's ints, the set, den)
        cols_k = [
            (j, columns[c], head + (c,), den * scales[c])
            for j, (head, den) in enumerate(prev_cols)
            for c in range(head[-1] + 1 if head else 0, k if leading else m)
        ]
        level = []
        for rows in rows_k:
            # expansion terms of each row set: (sign, row, (k-1)-minors without that row)
            terms = [((-1) ** (k - 1 - j), r, prev[row_index[rows[:j] + rows[j + 1 :]]]) for j, r in enumerate(rows)]
            values = []
            for rest, column, cols, den in cols_k:
                s = sum(sign * column[r] * below[rest] for sign, r, below in terms)
                values.append(s)
                yield rows, cols, s, den
            level.append(values)
        prev_rows, prev_cols, prev = rows_k, [(cols, den) for _, _, cols, den in cols_k], level


def all_minors(a: np.ndarray):
    """Yield ``(rows, cols, value)`` over every square minor, smallest first.

    Minors of size k come in lexicographic order of ``rows``, then of
    ``cols``, and each value is the exact ``Fraction`` of the submatrix's
    :func:`det`.  This is a view over the integer pass :func:`_scaled_minors`:
    one ``Fraction(s, den)`` per minor, and no arithmetic of its own.
    """
    for rows, cols, s, den in _scaled_minors(a):
        yield rows, cols, Fraction(s, den)


def leading_minors(a: np.ndarray, kmax: int) -> tuple[list, list]:
    """Minors on leading columns, as ints: ``(levels, dens)`` for the column-scaled ints.

    ``levels[k][j]`` is the minor on the j-th k-subset of rows (lexicographic)
    and columns 0..k-1 of the column-scaled ints, for k <= kmax, and
    ``dens[k] = prod(e_c for c < k)``: the minor of ``a`` is
    ``levels[k][j] / dens[k]``.  This is the leading-column restriction of
    the one Laplace pass :func:`_scaled_minors`: sum_k C(n,k) k multiply-adds
    in all.
    """
    levels, dens = [[1]], [1]
    total = sum(math.comb(a.shape[0], k) for k in range(1, kmax + 1))
    for rows, _, s, den in itertools.islice(_scaled_minors(a, leading=True), total):
        if len(rows) == len(levels):
            levels.append([])
            dens.append(den)
        levels[-1].append(s)
    return levels, dens


def _subtract(v: dict, x, b: dict) -> None:
    """``v -= x * b`` on sparse rows, in place; entries that cancel are dropped."""
    for c, y in b.items():
        z = v.get(c, 0) - x * y
        if z:
            v[c] = z
        else:
            del v[c]


def _primitive(v: dict, pivot) -> dict:
    """The int row ``v`` divided by the gcd of its entries, signed so that ``v[pivot] > 0``."""
    g = math.gcd(*v.values())
    if v[pivot] < 0:
        g = -g
    return v if g == 1 else {c: x // g for c, x in v.items()}


def _scaled_echelon(rows) -> dict:
    """The reduced echelon basis of the span of sparse int rows, fraction-free.

    Returns ``{pivot: row}``.  Each row is a primitive int vector (its entries
    have gcd 1) whose pivot entry ``d = row[pivot]`` is positive: the reduced
    echelon row in lowest terms is ``row / d``.  A row is reduced against the
    basis by one scaling with the LCM of the pivots it meets, which keeps it
    integral; a new row is then eliminated from the others by
    ``d * b - b[pivot] * row``.  The span does not change when an input row is
    scaled, so callers may hand in rows over any denominator.
    """
    basis: dict = {}  # pivot column -> primitive int row
    for row in rows:
        v = {c: x for c, x in row.items() if x}
        # a basis row is zero at every other pivot, so subtracting it leaves
        # the other pivot entries of v as they are
        hits = [p for p in v if p in basis]
        if hits:
            scale = math.lcm(*(basis[p][p] for p in hits))
            if scale != 1:
                v = {c: x * scale for c, x in v.items()}
            for p in hits:
                b = basis[p]
                _subtract(v, v[p] // b[p], b)
        if not v:
            continue
        pivot = min(v)
        v = _primitive(v, pivot)
        d = v[pivot]
        for p, b in basis.items():
            x = b.get(pivot)
            if x:
                if d != 1:
                    for c in b:
                        b[c] *= d
                _subtract(b, x, v)
                basis[p] = _primitive(b, p)
        basis[pivot] = v
    return basis


def _fraction_row(row: dict, pivot) -> dict:
    """A row of :func:`_scaled_echelon` as the Fractions of its reduced echelon row."""
    d = row[pivot]
    return {c: Fraction(x, d) for c, x in row.items()}


def reduce_rows(rows) -> list:
    """Reduced row echelon basis of the span of sparse rows ``{column: Fraction}``.

    Returns ``[(pivot, row)]`` sorted by pivot column, each row sparse with
    its pivot entry 1, and every pivot column cleared from every other row.
    The reduced echelon basis of a span is unique, so the Fractions do not
    depend on the order of ``rows``.  Int entries are promoted to Fractions.
    This is a view over the integer pass :func:`_scaled_echelon`: each input
    row is scaled by the LCM of its denominators, and one ``Fraction`` is
    built per entry of the result.
    """
    scaled = []
    for row in rows:
        scale = math.lcm(1, *(x.denominator for x in row.values()))
        scaled.append({c: x.numerator * (scale // x.denominator) for c, x in row.items()})
    basis = _scaled_echelon(scaled)
    return [(p, _fraction_row(basis[p], p)) for p in sorted(basis)]


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
