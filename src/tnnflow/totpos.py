"""Total positivity in SL(n) and its flag varieties.

Positive elements are produced by factorizations along reduced words for the
longest permutation, multiplied out exactly by one int column operation per
letter, each column over its own denominator, in one kernel that reads each
parameter as an int ratio ``(p, q)``; the fold gate runs the same column
operations on a whole stack of ratios at once.  Random parameters are drawn as such
ratios, the exact values of binary64 draws (``sample_params`` and
``sample_positive`` are the ``Fraction`` views of the draw and of the
product).  The verification gates' float checks certify no exact object, so
they draw the same binary64 parameters and multiply a whole batch out in
binary64, one stacked column operation per letter.  Positivity of a given matrix is
certified exactly on its column-scaled ints by one certificate, which
:func:`is_tnn_matrix` and the ``sample`` command share: first by its solid
minors alone, a level at a time from the condensation kernel
``tnnflow.linalg._solid_levels``: all positive is total positivity (Fekete),
a negative one rules out nonnegativity, and a triangular matrix is decided
by the interval minors of Fomin and Zelevinsky.  Any other matrix goes to
the sign of every minor, one level at a time from the Laplace kernel
``tnnflow.linalg._minor_levels``, with no early exit; :func:`certify_minors`
walks every minor of every matrix and is kept as the oracle.  A flag, exact
or float, is carried by any matrix whose leading columns span it: a group
element, or in float work an orthonormal frame, whose flag minors
:func:`flag_minors` takes for a whole stack at once.
For the complete SL(3) flag variety we expose the classical six-coordinate
chart ``(v, w)``, read off any such matrix (``tnnflow flow`` reads it off
a flowed frame), together with its membership oracle:

    v1 + v2 + v3 = 1,   w1 + w2 + w3 = 1,   v1*w1 - v2*w2 + v3*w3 = 0,

with all six coordinates nonnegative exactly on the closure of the positive
part.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import linalg
from .chevalley import FLOAT, RATIONAL, GroupElement

__all__ = [
    "Positivity",
    "Membership",
    "ReducedWord",
    "standard_word_w0",
    "FactorizationParams",
    "sample_params",
    "sample_positive",
    "is_tnn_matrix",
    "certify_minors",
    "flag_minors",
    "Sl3Coords",
    "sl3_coords",
    "sl3_membership",
    "sl3_residuals",
]


class Positivity(enum.Enum):
    TOTALLY_POSITIVE = "TotallyPositive"
    TOTALLY_NONNEGATIVE = "TotallyNonnegative"
    NEITHER = "Neither"


class Membership(enum.Enum):
    POSITIVE_PART = "PositivePart"
    NONNEGATIVE_BOUNDARY = "NonnegativeBoundary"
    OUTSIDE = "Outside"


def _word_permutation(n: int, letters) -> list[int]:
    perm = list(range(n))
    for i in letters:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


@dataclass(frozen=True)
class ReducedWord:
    """A reduced word for the longest element of the symmetric group S_n."""

    n: int
    letters: tuple

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 2
        if len(self.letters) != expected:
            raise ValueError(
                f"a reduced word for w0 in S_{self.n} has length {expected}, "
                f"got {len(self.letters)}"
            )
        if any(i < 1 or i >= self.n for i in self.letters):
            raise ValueError("word letters must be simple root indices 1..n-1")
        if _word_permutation(self.n, self.letters) != list(range(self.n - 1, -1, -1)):
            raise ValueError("word does not multiply to the longest permutation")

    def __len__(self) -> int:
        return len(self.letters)


def standard_word_w0(n: int) -> ReducedWord:
    """The staircase word (1, 2,1, 3,2,1, ..., n-1,...,1)."""
    letters = []
    for k in range(1, n):
        letters.extend(range(k, 0, -1))
    return ReducedWord(n, tuple(letters))


@dataclass(frozen=True)
class FactorizationParams:
    """Nonnegative parameters attached to the letters of a reduced word.

    ``t`` has either one entry per letter, or two per letter (first half for
    the upper factor, second half for the lower) when sampling the full
    totally nonnegative part of the group.  ``torus`` holds n-1 positive
    coweight parameters and may be omitted for unipotent sampling.
    """

    word: ReducedWord
    t: tuple
    torus: tuple | None = None

    def __post_init__(self):
        ell = len(self.word)
        if len(self.t) not in (ell, 2 * ell):
            raise ValueError(f"expected {ell} or {2 * ell} parameters, got {len(self.t)}")
        if any(tk < 0 for tk in self.t):
            raise ValueError("factorization parameters must be nonnegative")
        if self.torus is not None:
            if len(self.torus) != self.word.n - 1:
                raise ValueError("torus needs one positive parameter per simple root")
            if any(s <= 0 for s in self.torus):
                raise ValueError("torus parameters must be positive")


def _positive_ratio(x: float) -> tuple[int, int]:
    """The exact ratio ``(p, q)`` of the binary64 e^x: a positive parameter from a draw x
    uniform over [-3, 3], so log-uniform over [e^-3, e^3], spanning well- and
    ill-conditioned regimes and exact, so every product of them is certifiable."""
    return math.exp(x).as_integer_ratio()


def _mask_indices(mask, size: int, name: str) -> set:
    """The indices of ``mask`` as a set; one outside ``range(size)`` raises ``ValueError``
    naming it, and one that is not an integer raises ``TypeError``."""
    indices = {operator.index(k) for k in mask}
    bad = sorted(k for k in indices if not 0 <= k < size)
    if bad:
        raise ValueError(f"{name} index {bad[0]} is not in range({size})")
    return indices


def _zero_masks(rng: np.random.Generator, count: int, size: int, most: int) -> np.ndarray:
    """``(count, size)`` bools, row k marking a uniform random subset of ``range(size)`` whose
    size is uniform on 1..``most``: one ``rng.integers`` call draws the sizes and one
    ``rng.random`` call draws a row of uniforms per mask, whose smallest ``sizes[k]``
    (by per-row rank) mark the subset."""
    sizes = rng.integers(1, most + 1, count)
    ranks = rng.random((count, size)).argsort(axis=1).argsort(axis=1)
    return ranks < sizes[:, None]


def sample_params(
    word: ReducedWord,
    rng: np.random.Generator,
    *,
    zero_mask=None,
    group: bool = False,
) -> FactorizationParams:
    """Draw random exact factorization parameters.

    ``zero_mask`` pins the chosen positions to zero, which lands the sample
    on the boundary of the nonnegative part; an index outside the parameters
    raises ``ValueError``.  ``group=True`` draws two parameters per letter and
    the n-1 torus parameters, for an upper*torus*lower product.  This is the
    ``Fraction`` view of the ratio draw: one ``rng.uniform`` call makes every
    draw, each parameter a :func:`_positive_ratio`, the stream that
    :func:`_float_lower_samples` reads for a whole batch in binary64.
    """
    count = (2 if group else 1) * len(word)
    zeroed = _mask_indices(() if zero_mask is None else zero_mask, count, "zero_mask")
    # the torus is drawn even when unused, so the draws that follow on rng
    # (and the report bytes) do not depend on which product the caller forms
    vals = [Fraction(*_positive_ratio(x)) for x in rng.uniform(-3.0, 3.0, count + word.n - 1).tolist()]
    vals, torus = vals[:count], tuple(vals[count:])
    for k in zeroed:
        vals[k] = Fraction(0)
    return FactorizationParams(word, tuple(vals), torus if group else None)


def _float_lower_products(word: ReducedWord, ts: np.ndarray) -> np.ndarray:
    """The lower-unipotent products along ``word`` of a stack of binary64 parameters, ``(m,
    len(word))`` to ``(m, n, n)``, a zeroed parameter read as 0.0.

    One column operation per letter runs on the whole stack: y_i(t) adds
    t * column i to column i-1.  No term is ever subtracted, so each entry is
    within 2 len(word) ulps, relative, of the exact product rounded, and zero
    exactly where that is; each matrix is bit for bit its parameters' alone.
    """
    ts = np.asarray(ts, dtype=np.float64)
    cols = np.broadcast_to(np.eye(word.n), (ts.shape[0], word.n, word.n)).copy()  # (m, column, row)
    for k, i in enumerate(word.letters):
        cols[:, i - 1] += ts[:, k, None] * cols[:, i]
    return cols.transpose(0, 2, 1)


def _float_lower_samples(word: ReducedWord, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` lower-unipotent products along ``word`` in binary64, ``(count, n, n)``.

    One ``rng.uniform`` call draws the stream of ``count`` calls of
    :func:`sample_params`, torus draws included, and leaves ``rng`` where they
    leave it; each parameter is ``math.exp`` of its draw, the float whose exact
    ratio :func:`_positive_ratio` gives, and :func:`_float_lower_products`
    multiplies the batch out.  The float gates sample this way: they certify
    no exact object, so no int product is formed.
    """
    ell = len(word)
    draws = rng.uniform(-3.0, 3.0, (count, ell + word.n - 1))[:, :ell].tolist()
    return _float_lower_products(word, [[math.exp(x) for x in row] for row in draws])


def sample_positive(params: FactorizationParams, side: str) -> GroupElement:
    """Multiply out a factorization: an element of U+, U-, or all of SL(n).

    ``side='group'`` forms the product (upper unipotent) * (torus) *
    (lower unipotent); with strictly positive parameters this lands in the
    totally positive part, and letting parameters degenerate to zero sweeps
    out the nonnegative closure.  With two parameters per letter, ``'upper'``
    reads the first half and ``'lower'`` the second.  This is the
    ``Fraction`` view, one per entry, of the int product :func:`_scaled_product`.
    """
    # unipotent and coweight factors all have determinant 1
    return GroupElement._det_one(linalg._fraction_of_scaled(*_scaled_product(params, side)))


def _reduced(column: list, den: int) -> tuple[list, int]:
    g = math.gcd(den, *column)
    return ([x // g for x in column], den // g) if g > 1 else (column, den)


def _exact_ratio(t) -> tuple[int, int]:
    """``t.as_integer_ratio()`` for an exact parameter; a float one raises ``TypeError``.

    ``Fraction`` and ``int``, the common case, are read directly; only other
    types pay for the ``numbers.Rational`` check and a ``Fraction``.
    """
    if type(t) in (Fraction, int):
        return t.as_integer_ratio()
    if isinstance(t, Rational):
        return Fraction(t).as_integer_ratio()
    raise TypeError("exact parameters required; a float parameter carries no certificate")


def _scaled_lower_products(word: ReducedWord, ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower-unipotent products along ``word`` of a stack of int ratios, ``(m, len(word), 2)``
    object ints ``(p, q)``, ``(0, 1)`` for a zeroed parameter, as a stack of column-scaled
    ints ``(ints, scales)``: ``(m, n, n)`` and ``(m, n)`` object arrays, matrix k being
    ``ints[k] / scales[k]`` column by column.

    This is :func:`_column_product` on the whole stack: one column operation per
    letter, y_i(p / q) adding p / q times column i to column i-1, as object-array
    int arithmetic across the stack.  Column i-1's new scale is the LCM of its
    scale and q times column i's (kept where p = 0), as in
    :func:`_column_product`, which also divides out the gcd of each column: the
    two agree as rationals, and int true division of either rounds to the same
    binary64 matrix.
    """
    m, n = ratios.shape[0], word.n
    cols = np.zeros((m, n, n), dtype=object)  # (m, column, row)
    cols[:, np.arange(n), np.arange(n)] = 1
    scales = np.ones((m, n), dtype=object)
    for k, i in enumerate(word.letters):
        p, q = ratios[:, k, 0], ratios[:, k, 1]
        da, qdb = scales[:, i - 1], q * scales[:, i]
        den = np.where(p != 0, np.lcm(da, qdb), da)
        cols[:, i - 1] = (den // da)[:, None] * cols[:, i - 1] + (p * (den // qdb))[:, None] * cols[:, i]
        scales[:, i - 1] = den
    return cols.transpose(0, 2, 1), scales


def _scaled_product(params: FactorizationParams, side: str) -> tuple[list, list]:
    """The product of :func:`sample_positive` as column-scaled ints ``(columns, scales)``:
    the factors :func:`_steps` of ``side`` in the one column-operation kernel
    :func:`_column_product`.
    """
    return _column_product(params.word.n, _steps(params, side))


def _steps(params: FactorizationParams, side: str) -> list:
    """The factors of the product on ``side``, left to right, as ``(kind, i, p, q)`` for
    the factor x_i, y_i or the coweight h_i of the parameter ``p / q``: each parameter
    through :func:`_exact_ratio`, so float ones raise ``TypeError``.
    """
    n, ell = params.word.n, len(params.word)

    def along(kind, ts):
        return [(kind, i, *_exact_ratio(tk)) for i, tk in zip(params.word.letters, ts)]

    # with 2 * ell parameters the lower factor takes the second half
    if side == "upper":
        steps = along("x", params.t[:ell])
    elif side == "lower":
        steps = along("y", params.t[-ell:])
    elif side == "group":
        torus_ts = params.torus if params.torus is not None else (1,) * (n - 1)
        coweights = [("coweight", i, *_exact_ratio(s)) for i, s in enumerate(torus_ts, 1)]
        steps = along("x", params.t[:ell]) + coweights + along("y", params.t[-ell:])
    else:
        raise ValueError(f"side must be 'upper', 'lower' or 'group', got {side!r}")
    return steps


def _column_product(n: int, steps) -> tuple[list, list]:
    """The n x n product of the factors ``steps``, ``(kind, i, p, q)`` for the parameter
    ``p / q >= 0`` (``q > 0``), as column-scaled ints ``(columns, scales)``.

    Right multiplication by a factor is a column operation on the product so
    far, so each letter costs O(n): x_i(t) adds t * column i-1 to column i,
    y_i(t) adds t * column i to column i-1, and the coweight h_i(s) scales
    column i-1 by s and column i by 1/s (columns counted from 0).  Column c
    is held as ``(ints, den)`` for the column ``ints / den``, kept in lowest
    terms, so every step is int arithmetic over a common denominator, and
    ``den`` is the LCM of the column's denominators: ``columns[c]`` and
    ``scales[c]`` are what :func:`tnnflow.linalg._scaled_columns` reads off
    the ``Fraction`` matrix.
    """
    cols = [([int(r == c) for r in range(n)], 1) for c in range(n)]
    for kind, i, p, q in steps:
        if kind == "coweight":
            (a, da), (b, db) = cols[i - 1], cols[i]
            cols[i - 1] = _reduced([x * p for x in a], da * q)
            cols[i] = _reduced([x * q for x in b], db * p)
        elif p:
            dst, src = (i, i - 1) if kind == "x" else (i - 1, i)
            (a, da), (b, db) = cols[dst], cols[src]
            den = math.lcm(da, q * db)
            fa, fb = den // da, p * (den // (q * db))
            cols[dst] = _reduced([fa * x + fb * y for x, y in zip(a, b)], den)
    return [a for a, _ in cols], [da for _, da in cols]


def _exact_columns(g) -> tuple[list, list]:
    """The column-scaled ints ``(columns, scales)`` of an exact matrix or group element.

    ``Fraction``, ``int`` and integer dtype entries are exact; float entries
    raise ``TypeError``, and a matrix with no rows or no columns, which has no
    minor to certify, raises ``ValueError``.
    """
    entries = g.entries if isinstance(g, GroupElement) else g
    if not (linalg.is_rational_array(entries) or np.issubdtype(entries.dtype, np.integer)):
        raise TypeError("exact entries required; a float entry carries no certificate")
    if 0 in entries.shape:
        raise ValueError(f"a {entries.shape[0]} x {entries.shape[1]} matrix has no minors to certify")
    return linalg._scaled_columns(entries)


def _least_ratio(least, pairs) -> tuple | None:
    """The least of ``least`` and the ratios ``s / den`` of ``pairs`` (each ``den > 0``), as
    ``(s, den)``, compared exactly by cross-multiplying, ``s * den' < s' * den``;
    ``least`` is None before the first pair."""
    for s, den in pairs:
        if least is None or s * least[1] < least[0] * den:
            least = (s, den)
    return least


def _least_minor(columns: list, scales: list) -> Fraction:
    """The least minor of the matrix with column c ``columns[c] / scales[c]``, walked level by
    level on the ints of the minor kernel.

    A k-minor on columns C is ``s / den`` for an int ``s`` and the product
    ``den`` of the column scales of C, so within one column set the least
    ``s`` gives the least minor, by plain int comparison; the per-set winners
    are compared by :func:`_least_ratio`, one comparison per column set, and
    one ``Fraction`` is built for the answer.
    """
    least = None  # (s, den) of the least minor so far
    for values, dens in linalg._minor_levels(*linalg._scaled_stack([(columns, scales)])):
        least = _least_ratio(least, zip(values[0].min(axis=0).tolist(), dens[0].tolist()))
    return Fraction(*least)


def _certificate(columns: list, scales: list) -> tuple[Positivity, Fraction | None, str | None]:
    """``(verdict, margin, minors)`` for the matrix with column c ``columns[c] / scales[c]``.

    The verdict is :func:`certify_minors`'.  ``minors`` says which minors the
    margin is the least of.  The solid minors of the column-scaled ints come a
    level at a time from :func:`linalg._solid_levels`, and the walk stops at
    the first level holding a minor <= 0:

    - A square triangular matrix, n >= 2, is TNN with least minor exactly 0
      (``"all"``) iff its solid minors on or below the diagonal (above, if
      upper triangular) are positive: for a lower one that is ``u diag(e)``
      with u lower unitriangular, those minors hold the n(n-1)/2 interval
      minors Delta_{[j+1, j+k], [1, k]} of u, which put u in U-_{>0}
      (Fomin-Zelevinsky, Math. Intelligencer 2000).  An upper triangular
      matrix is walked through its transpose.
    - Otherwise every solid minor positive gives TOTALLY_POSITIVE (Fekete),
      and the margin is the least solid minor (``"solid"``): the least int per
      column start, where the minors share the denominator, the product of the
      scales of their columns, then the winners compared by :func:`_least_ratio`.
    - A negative minor on either walk gives ``(NEITHER, None, None)``: the
      least minor would take every minor, and the verdict needs none of them.
    - A zero one leaves the verdict to the walk over all minors
      (:func:`_least_minor`), and the margin is its least minor (``"all"``).
    """
    m, n = len(columns), len(columns[0])
    ints, lower = np.array(columns, dtype=object).reshape(m, n).T, False
    if n == m >= 2:
        if not any(x for c, column in enumerate(columns) for x in column[:c]):
            lower = True
        elif not any(x for c, column in enumerate(columns) for x in column[c + 1 :]):
            ints, lower = ints.T, True
    least, dens = None, [1] * (m + 1)
    for k, level in enumerate(linalg._solid_levels(ints, lower), 1):
        rows = level.tolist()
        low = min(x for i, row in enumerate(rows) for x in (row[: i + 1] if lower else row))
        if low < 0:
            return Positivity.NEITHER, None, None
        if low == 0:
            margin = _least_minor(columns, scales)
            return _positivity(margin), margin, "all"
        if not lower:
            dens = [d * e for d, e in zip(dens, scales[k - 1 :])]
            least = _least_ratio(least, zip(map(min, zip(*rows)), dens))
    if lower:
        return Positivity.TOTALLY_NONNEGATIVE, Fraction(0), "all"
    return Positivity.TOTALLY_POSITIVE, Fraction(*least), "solid"


def _positivity(least_minor) -> Positivity:
    """The sign rule: a negative minor rules out TNN, a zero one rules out TP."""
    if least_minor < 0:
        return Positivity.NEITHER
    return Positivity.TOTALLY_POSITIVE if least_minor > 0 else Positivity.TOTALLY_NONNEGATIVE


def is_tnn_matrix(g) -> Positivity:
    """Classify a matrix by the signs of all its minors (exact arithmetic).

    Requires exact entries (``Fraction``, ``int`` or an integer dtype); the
    binary64 rounding of a float matrix is certified by
    ``_certificate(*linalg._scaled_columns(entries))``, which reads each
    float as its exact ratio.  This is the verdict of :func:`_certificate` on the
    column-scaled ints: the solid minors decide it first, a level at a time,
    by condensation, and any other matrix goes to the walk over all minors.
    No ``Fraction`` is built on the way.
    """
    return _certificate(*_exact_columns(g))[0]


def certify_minors(g) -> tuple[Positivity, Fraction]:
    """``(verdict, least minor)`` of an exact matrix, from one pass over all minors.

    The verdict is the one :func:`is_tnn_matrix` gives; the least minor is
    taken over every minor, so this walk reads no solid minor first: it is the
    oracle the condensation certificate is tested against.  It keeps the least
    scaled int of each column set and builds one ``Fraction``.
    """
    least = _least_minor(*_exact_columns(g))
    return _positivity(least), least


def flag_minors(frames: np.ndarray, levels) -> dict:
    """Per level k, the minors of the leading k columns of a stack of float frames on every
    k-subset of rows, lexicographic, ``(m, n, n)`` to ``(m, comb(n, k))``: one stacked
    ``np.linalg.det``, each minor bit for bit the ``det`` of its frame's alone."""
    n = frames.shape[-1]
    return {k: np.linalg.det(frames[:, np.array(list(itertools.combinations(range(n), k))), :k]) for k in levels}


# ---------------------------------------------------------------------------
# the SL(3) coordinate chart


@dataclass(frozen=True)
class Sl3Coords:
    """Affine coordinates (v, w) of a complete flag in SL(3).

    ``v`` spans the line, ``w`` is the twisted normal of the plane; both are
    normalized to sum 1.  Exact and float variants share the type.
    """

    v: tuple
    w: tuple
    field: str

    def as_vector(self) -> np.ndarray:
        dtype = object if self.field == RATIONAL else np.float64
        return np.array(list(self.v) + list(self.w), dtype=dtype)


def _normalize_sum(vec, field: str):
    """``vec`` over its sum; a sum of zero (to 1e-14 relative, in floats) raises ``ValueError``:
    the flag has no point in the (v, w) chart."""
    total = vec[0] + vec[1] + vec[2]
    if field == RATIONAL:
        if total == 0:
            raise ValueError("coordinate vector sums to zero; chart undefined here")
    elif abs(total) <= 1e-14 * float(np.max(np.abs(np.asarray(vec, dtype=np.float64)))):
        raise ValueError("coordinate vector sums to ~zero; chart undefined here")
    return tuple(x / total for x in vec)


def sl3_coords(m) -> Sl3Coords:
    """Extract (v, w) from a complete SL(3) flag.

    ``m`` is any 3x3 matrix (exact or float) whose leading columns span the
    flag: a group element's entries, or an orthonormal frame.  The line
    gives ``v`` directly; the plane spanned by the first two columns has
    normal ``z = col1 x col2``, and ``w = (z1, -z2, z3)``.  Both are
    normalized to sum 1, so the choice of basis of each subspace cancels; a v
    or w that sums to zero raises ``ValueError``.
    """
    m = np.asarray(m)
    if m.shape != (3, 3):
        raise ValueError("the (v, w) chart lives on the complete SL(3) flag variety")
    field = RATIONAL if linalg.is_rational_array(m) else FLOAT
    c0, c1 = m[:, 0], m[:, 1]
    z = np.cross(c0, c1)  # exact on a Fraction or int object array
    v = _normalize_sum(tuple(c0), field)
    w = _normalize_sum((z[0], -z[1], z[2]), field)
    return Sl3Coords(v, w, field)


def sl3_residuals(coords: Sl3Coords) -> dict:
    """Constraint residuals of a coordinate pair (all zero on the variety)."""
    v, w = coords.v, coords.w
    return {
        "sum_v": v[0] + v[1] + v[2] - 1,
        "sum_w": w[0] + w[1] + w[2] - 1,
        "orthogonality": v[0] * w[0] - v[1] * w[1] + v[2] * w[2],
        "min_coord": min(min(v), min(w)),
    }


def sl3_membership(coords: Sl3Coords, tol: float = 1e-10) -> Membership:
    """Place a coordinate pair relative to the nonnegative part of the variety.

    Exact input is decided exactly; float input uses ``tol`` both for the
    constraint residuals and for deciding whether a coordinate vanishes.
    """
    res = sl3_residuals(coords)
    tol = 0 if coords.field == RATIONAL else tol
    if any(abs(res[key]) > tol for key in ("sum_v", "sum_w", "orthogonality")) or res["min_coord"] < -tol:
        return Membership.OUTSIDE
    if res["min_coord"] <= tol:
        return Membership.NONNEGATIVE_BOUNDARY
    return Membership.POSITIVE_PART
