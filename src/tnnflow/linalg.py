"""Exact linear algebra on column-scaled ints.

An exact matrix is carried as the pair ``(columns, scales)`` of
:func:`_scaled_columns`: column c times the LCM ``e_c`` of its own
denominators, as Python ints, and the ``e_c``.  ``tnnflow.totpos``
multiplies its products out in that form, and every exact kernel here runs
on it, one matrix at a time: a ``Fraction`` is built only for
:func:`_fraction_of_scaled`, ``totpos.sample_positive``'s ``Fraction`` view
(the ``sample`` report writes its matrices from the ints).  Matrices with
``Fraction`` or ``int`` entries in object arrays go in through
:func:`_scaled_columns`, and so do float ones, each entry read by its own
``as_integer_ratio()``, exact for a float.  Float work is delegated to
numpy proper; these helpers exist for the places where the answer must be a
certificate (minor signs, echelon bases) rather than an approximation.

- All minors of one matrix come from one integer Laplace kernel,
  :func:`_minor_levels`: it computes one whole level of k-minors at a time,
  as a few numpy object-array gathers, multiplies and adds over index tables
  cached per (n, m, k), and the k-minor on columns C is a plain int over
  ``prod(e_c for c in C)``.  ``tnnflow.totpos`` compares its ints directly,
  for the least minor of a matrix that its solid minors leave undecided.
  A flag takes no exact minor at all: :mod:`tnnflow.embedding` runs its
  word on the wedge columns.
- The solid minors alone (contiguous rows and columns), which decide total
  positivity, come a level at a time from the condensation kernel
  :func:`_solid_levels` on the same ints.
- The one echelon routine is a fraction-free pass on sparse int rows
  ``{column: int}``, :func:`_scaled_echelon`: the highest-weight modules of
  :mod:`tnnflow.embedding` run it one weight space at a time and keep the
  primitive int rows it returns.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

__all__ = ["to_float", "is_rational_array"]


def to_float(a: np.ndarray) -> np.ndarray:
    return np.array(a, dtype=np.float64)


def is_rational_array(a: np.ndarray) -> bool:
    return a.dtype == object


# the entry types whose own as_integer_ratio() is read, with no Fraction built
_RATIO_TYPES = (Fraction, int, float)


def _scaled_columns(a) -> tuple[list, list]:
    """The columns of ``a``, column c times the LCM ``e_c`` of its denominators, as ints, and the ``e_c``.

    Each entry is read as its ratio ``(p, q)``: a ``Fraction``, ``int`` or
    float by its own ``as_integer_ratio()``, exact for a float; only other
    types (numpy scalars, bools) go through ``Fraction(x)``, and its parts
    are made Python ints, since ``Fraction(np.int64(3))`` keeps an ``int64``
    numerator that wraps once it is scaled.  A NaN raises ``ValueError`` and
    an infinity ``OverflowError``.
    """
    ratios = [[x.as_integer_ratio() if type(x) in _RATIO_TYPES else tuple(map(int, Fraction(x).as_integer_ratio()))
               for x in row]
              for row in a.tolist()]
    scales = [math.lcm(1, *(row[c][1] for row in ratios)) for c in range(a.shape[1])]
    return [[row[c][0] * (e // row[c][1]) for row in ratios] for c, e in enumerate(scales)], scales


def _float_of_scaled(columns: list, scales: list) -> np.ndarray:
    """The binary64 matrix ``columns[c][r] / scales[c]``: int true division rounds as ``to_float`` does."""
    return np.array([[x / e for x, e in zip(row, scales)] for row in zip(*columns)])


def _fraction_of_scaled(columns: list, scales: list) -> np.ndarray:
    """The exact matrix ``columns[c][r] / scales[c]``: one ``Fraction`` per entry, in an object array."""
    return np.array([[Fraction(x, e) for x, e in zip(row, scales)] for row in zip(*columns)], dtype=object)


@functools.lru_cache(maxsize=None)
def _laplace_tables(n: int, m: int, k: int) -> tuple:
    """Index tables for level k of :func:`_minor_levels` on n x m matrices.

    ``picked[i, j]`` is row j of the i-th k-subset of rows (lexicographic) and
    ``dropped[i, j]`` the index of that subset without it among the
    (k-1)-subsets.  ``heads[c]`` is the index among the (k-1)-subsets of
    columns of the c-th k-subset without its last column ``lasts[c]``.  The
    cache hands the same arrays to every call, so they are read-only.
    """
    below = {rows: i for i, rows in enumerate(itertools.combinations(range(n), k - 1))}
    subsets = list(itertools.combinations(range(n), k))
    picked = np.array(subsets).reshape(len(subsets), k)
    dropped = np.array([[below[rows[:j] + rows[j + 1 :]] for j in range(k)] for rows in subsets])
    index = {cols: i for i, cols in enumerate(itertools.combinations(range(m), k - 1))}
    cols_k = list(itertools.combinations(range(m), k))
    heads, lasts = np.array([index[cols[:-1]] for cols in cols_k]), np.array([cols[-1] for cols in cols_k])
    tables = (picked, dropped, heads, lasts)
    for table in tables:
        table.setflags(write=False)
    return tables


# minors per block of rows of a level: its big-int temporaries stay this small
_BLOCK = 1024


def _minor_levels(columns: list, scales: list, kmax: int | None = None):
    """Yield ``(values, dens)`` for each minor size k = 1..kmax of one matrix, given by its
    column-scaled ints: column c is ``columns[c] / scales[c]``.

    ``values[r, c]`` is the k-minor of the ints on the r-th k-subset of rows
    and the c-th k-subset of columns, both lexicographic, and ``dens[c]`` the
    product of the scales of that column set, so the minor of the matrix is
    ``values[r, c] / dens[c]``: within one column set, ints compare as the
    minors do.  Each level is one Laplace expansion along the last column of
    each set over the level below, as k object-array gathers, multiplies and
    adds, with index tables cached per (n, m, k).  Only the levels k-1 and k
    are alive at once, and the largest level of an n x n matrix holds
    C(n, n//2)**2 ints, 63,504 at n = 10; a level is summed in blocks of rows
    of about ``_BLOCK`` minors, so its terms and partial sums stay that small
    beside it.  ``kmax`` defaults to ``min(n, m)``.
    """
    m = len(columns)
    n = len(columns[0]) if m else 0
    ints, scales = np.array(columns, dtype=object).reshape(m, n).T, np.array(scales, dtype=object).reshape(m)
    prev, dens = np.ones((1, 1), dtype=object), np.ones(1, dtype=object)
    for k in range(1, (min(n, m) if kmax is None else kmax) + 1):
        picked, dropped, heads, lasts = _laplace_tables(n, m, k)
        entries, below = ints[:, lasts], prev[:, heads]
        level = np.empty((len(picked), len(lasts)), dtype=object)
        step = max(1, _BLOCK // len(lasts))
        for start in range(0, len(picked), step):
            rows = slice(start, start + step)
            # the term of row j has the sign (-1)**(k-1-j)
            block = entries[picked[rows, k - 1]] * below[dropped[rows, k - 1]]
            for j in range(k - 2, -1, -1):
                term = entries[picked[rows, j]] * below[dropped[rows, j]]
                block = block - term if (k - 1 - j) % 2 else block + term
            level[rows] = block
        dens = dens[heads] * scales[lasts]
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
