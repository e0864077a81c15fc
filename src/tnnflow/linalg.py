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
denominators: the pair ``(columns, scales)`` of :func:`_scaled_columns`,
in which ``tnnflow.totpos`` also multiplies out its products.  Determinants
and inverses run Bareiss elimination on those ints; :func:`inv` is the
inverse behind the exact sigma ``tnnflow.folding.apply_group``, which no
gate takes.  All minors come from one integer Laplace
kernel, :func:`_minor_levels`, on a stack of such pairs laid out as object
arrays (:func:`_scaled_stack`): it computes one whole level of k-minors at a
time, for every matrix of the stack, as a few numpy object-array gathers,
multiplies and adds over index tables cached per (n, m, k), and the k-minor
on columns C is a plain int over ``prod(e_c for c in C)``.  Callers that
only compare minors (``tnnflow.totpos``) read its ints directly,
:func:`all_minors` is its ``Fraction`` view, and with ``leading`` it
restricts each level to the leading columns, which the line embedding
reads, a whole stack of exact flags at once, with no ``Fraction`` built.
The solid minors alone (contiguous rows and columns), which decide total
positivity, come a level at a time from the condensation kernel
:func:`_solid_levels` on the same ints.
"""

from __future__ import annotations

import functools
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


def _float_of_scaled(columns: list, scales: list) -> np.ndarray:
    """The binary64 matrix ``columns[c][r] / scales[c]``: int true division rounds as ``to_float`` does."""
    return np.array([[x / e for x, e in zip(row, scales)] for row in zip(*columns)])


def _fraction_of_scaled(columns: list, scales: list) -> np.ndarray:
    """The exact matrix ``columns[c][r] / scales[c]``: one ``Fraction`` per entry, in an object array."""
    return np.array([[Fraction(x, e) for x, e in zip(row, scales)] for row in zip(*columns)], dtype=object)


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
    of the inverse is the int row i of ``d M^-1`` scaled by ``e_i``, over ``d``,
    and one ``Fraction`` is built per entry.
    """
    n = a.shape[0]
    columns, scales = _scaled_columns(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(zip(*columns))]
    d, _ = _bareiss(aug, jordan=True)
    if d == 0:
        raise ZeroDivisionError("matrix is singular over the rationals")
    return np.array([[Fraction(e * y, d) for y in row[n:]] for e, row in zip(scales, aug)], dtype=object).reshape(n, n)


def _scaled_stack(scaled) -> tuple[np.ndarray, np.ndarray]:
    """A sequence of column-scaled pairs ``(columns, scales)`` of one shape as object
    arrays of Python ints: ``ints`` ``(s, n, m)``, entry ``[i, r, c] = columns[c][r]`` of
    pair i, and ``scales`` ``(s, m)``."""
    m = len(scaled[0][0])
    n = len(scaled[0][0][0]) if m else 0
    ints = np.array([columns for columns, _ in scaled], dtype=object).reshape(len(scaled), m, n)
    return ints.swapaxes(1, 2), np.array([scales for _, scales in scaled], dtype=object).reshape(len(scaled), m)


@functools.lru_cache(maxsize=None)
def _laplace_tables(n: int, m: int, k: int, leading: bool) -> tuple:
    """Index tables for level k of :func:`_minor_levels` on n x m matrices.

    ``picked[i, j]`` is row j of the i-th k-subset of rows (lexicographic) and
    ``dropped[i, j]`` the index of that subset without it among the
    (k-1)-subsets.  ``heads[c]`` is the index among the (k-1)-subsets of
    columns of the c-th k-subset without its last column ``lasts[c]``; with
    ``leading`` the one k-subset is the leading columns 0..k-1.  The cache
    hands the same arrays to every call, so they are read-only.
    """
    below = {rows: i for i, rows in enumerate(itertools.combinations(range(n), k - 1))}
    subsets = list(itertools.combinations(range(n), k))
    picked = np.array(subsets).reshape(len(subsets), k)
    dropped = np.array([[below[rows[:j] + rows[j + 1 :]] for j in range(k)] for rows in subsets])
    if leading:
        heads, lasts = np.array([0]), np.array([k - 1])
    else:
        index = {cols: i for i, cols in enumerate(itertools.combinations(range(m), k - 1))}
        cols_k = list(itertools.combinations(range(m), k))
        heads, lasts = np.array([index[cols[:-1]] for cols in cols_k]), np.array([cols[-1] for cols in cols_k])
    tables = (picked, dropped, heads, lasts)
    for table in tables:
        table.setflags(write=False)
    return tables


# minors per block of rows of a level: its big-int temporaries stay this small
_BLOCK = 1024


def _minor_levels(ints: np.ndarray, scales: np.ndarray, kmax: int | None = None, leading: bool = False):
    """Yield ``(values, dens)`` for each minor size k = 1..kmax, for a stack of column-scaled ints.

    Matrix i of the stack has column c equal to ``ints[i, :, c] / scales[i, c]``
    (as :func:`_scaled_stack` lays them out).  ``values[i, r, c]`` is the
    k-minor of the ints of matrix i on the r-th k-subset of rows and the c-th
    k-subset of columns, both lexicographic, and ``dens[i, c]`` the product of
    the scales of that column set, so the minor of the matrix is
    ``values[i, r, c] / dens[i, c]``: within one column set, ints compare as
    the minors do.  Each level is one Laplace expansion along the last column
    of each set over the level below, as k object-array gathers, multiplies and
    adds on the whole stack, with index tables cached per (n, m, k).  Only the
    levels k-1 and k are alive at once, and the largest level of an n x n
    matrix holds C(n, n//2)**2 ints, 63,504 at n = 10; a level is summed in
    blocks of rows of about ``_BLOCK`` minors, so its terms and partial sums
    stay that small beside it.  With ``leading`` the one column set of level
    k is the leading columns 0..k-1: sum_k C(n,k) k multiply-adds per matrix.
    ``kmax`` defaults to ``min(n, m)``.
    """
    stack, n, m = ints.shape
    prev = np.ones((stack, 1, 1), dtype=object)
    dens = np.ones((stack, 1), dtype=object)
    for k in range(1, (min(n, m) if kmax is None else kmax) + 1):
        picked, dropped, heads, lasts = _laplace_tables(n, m, k, leading)
        entries, below = ints[:, :, lasts], prev[:, :, heads]
        level = np.empty((stack, len(picked), len(lasts)), dtype=object)
        step = max(1, _BLOCK // (stack * len(lasts)))
        for start in range(0, len(picked), step):
            rows = slice(start, start + step)
            # the term of row j has the sign (-1)**(k-1-j)
            block = entries[:, picked[rows, k - 1]] * below[:, dropped[rows, k - 1]]
            for j in range(k - 2, -1, -1):
                term = entries[:, picked[rows, j]] * below[:, dropped[rows, j]]
                block = block - term if (k - 1 - j) % 2 else block + term
            level[:, rows] = block
        dens = dens[:, heads] * scales[:, lasts]
        yield level, dens
        prev = level


def _solid_levels(ints: np.ndarray, lower: bool = False):
    """Yield the solid minors of an (n, m) object array of Python ints, one level at a time.

    Level k = 1..min(n, m) is the (n-k+1, m-k+1) object array whose entry
    [i, j] is the k-minor on the rows i..i+k-1 and the columns j..j+k-1.
    Level k+1 comes from levels k and k-1 (level 0 is all ones) by
    Desnanot-Jacobi condensation (Dodgson),

        (L[:-1, :-1] * L[1:, 1:] - L[:-1, 1:] * L[1:, :-1]) // P[1:-1, 1:-1],

    four object-array multiplies and one exact division.  The walk goes on only
    while every minor it would divide by is positive, so it never divides by
    zero: a caller that stops at the first level holding a minor <= 0 sees
    every level up to it.  With ``lower`` the matrix must be lower triangular:
    its solid minors with i < j are then 0, and only those with i >= j are
    divided and must be positive for the walk to go on.
    """
    n, m = ints.shape
    below, level = np.ones((n + 1, m + 1), dtype=object), ints
    for k in range(1, min(n, m) + 1):
        if k > 1:
            divisor = below[1:-1, 1:-1]
            if lower:
                divisor = np.where(np.tri(*divisor.shape, dtype=bool), divisor, 1)
            if not (divisor > 0).all():
                return
            level, below = (level[:-1, :-1] * level[1:, 1:] - level[:-1, 1:] * level[1:, :-1]) // divisor, level
        yield level


def all_minors(a: np.ndarray):
    """Yield ``(rows, cols, value)`` over every square minor, smallest first.

    Minors of size k come in lexicographic order of ``rows``, then of
    ``cols``, and each value is the exact ``Fraction`` of the submatrix's
    :func:`det`.  This is a view over the integer kernel :func:`_minor_levels`
    on a stack of one: one ``Fraction(s, den)`` per minor, and no arithmetic
    of its own.
    """
    n, m = a.shape
    for k, (values, dens) in enumerate(_minor_levels(*_scaled_stack([_scaled_columns(a)])), 1):
        cols_k = list(itertools.combinations(range(m), k))
        for rows, row in zip(itertools.combinations(range(n), k), values[0].tolist()):
            for cols, s, den in zip(cols_k, row, dens[0].tolist()):
                yield rows, cols, Fraction(s, den)


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
