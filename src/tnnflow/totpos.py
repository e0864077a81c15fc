"""Total positivity in SL(n) and its flag varieties.

Positive elements are produced by factorizations along reduced words for the
longest permutation, multiplied out exactly by one int column operation per
letter; positivity of a given matrix is certified by the sign of every minor,
all of them exact and taken as ints in one Laplace pass
(``tnnflow.linalg._scaled_minors``) whose verdict and least minor come
together.  A flag, exact or float, is carried by any matrix whose leading
columns span it: a group element, or in float work an orthonormal frame.
For the complete SL(3) flag variety we expose the classical six-coordinate
chart ``(v, w)`` together with its membership oracle:

    v1 + v2 + v3 = 1,   w1 + w2 + w3 = 1,   v1*w1 - v2*w2 + v3*w3 = 0,

with all six coordinates nonnegative exactly on the closure of the positive
part.
"""

from __future__ import annotations

import enum
import math
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


def _rational_positive(rng: np.random.Generator) -> Fraction:
    """A positive parameter, log-uniform over [e^-3, e^3], made exact.

    The draw spans well- and ill-conditioned regimes; converting the binary64
    value to its exact fraction keeps every downstream product certifiable.
    """
    return Fraction(*math.exp(rng.uniform(-3.0, 3.0)).as_integer_ratio())


def sample_params(
    word: ReducedWord,
    rng: np.random.Generator,
    *,
    zero_mask=None,
    group: bool = False,
) -> FactorizationParams:
    """Draw random exact factorization parameters.

    ``zero_mask`` pins the chosen positions to zero, which lands the sample
    on the boundary of the nonnegative part; ``group=True`` draws two
    parameters per letter and the n-1 torus parameters, for an
    upper*torus*lower product.
    """
    count = (2 if group else 1) * len(word)
    vals = [_rational_positive(rng) for _ in range(count)]
    # drawn even when unused, so the draws that follow on rng (and the
    # report bytes) do not depend on which product the caller forms
    torus = tuple(_rational_positive(rng) for _ in range(word.n - 1))
    if zero_mask is not None:
        for k in zero_mask:
            vals[k] = Fraction(0)
    return FactorizationParams(word, tuple(vals), torus if group else None)


def sample_positive(params: FactorizationParams, side: str) -> GroupElement:
    """Multiply out a factorization: an element of U+, U-, or all of SL(n).

    ``side='group'`` forms the product (upper unipotent) * (torus) *
    (lower unipotent); with strictly positive parameters this lands in the
    totally positive part, and letting parameters degenerate to zero sweeps
    out the nonnegative closure.

    Right multiplication by a factor is a column operation on the product so
    far, so each letter costs O(n): x_i(t) adds t * column i-1 to column i,
    y_i(t) adds t * column i to column i-1, and the coweight h_i(s) scales
    column i-1 by s and column i by 1/s (columns counted from 0).  Every
    parameter must be exact (float ones raise ``TypeError``): the product
    runs on int columns, each over its own denominator (see
    :func:`_exact_product`), and builds its n**2 ``Fraction``s once at the end.
    """
    word = params.word
    ell = len(word)

    def along(kind, ts):
        return [(kind, i, tk) for i, tk in zip(word.letters, ts)]

    if side == "upper":
        factors = along("x", params.t[:ell])
    elif side == "lower":
        factors = along("y", params.t[:ell])
    elif side == "group":
        lower_ts = params.t[ell:] if len(params.t) == 2 * ell else params.t
        torus_ts = params.torus if params.torus is not None else (Fraction(1),) * (word.n - 1)
        coweights = [("coweight", i, s) for i, s in zip(range(1, word.n), torus_ts)]
        factors = along("x", params.t[:ell]) + coweights + along("y", lower_ts)
    else:
        raise ValueError(f"side must be 'upper', 'lower' or 'group', got {side!r}")
    if not all(isinstance(t, Rational) for _, _, t in factors):
        raise TypeError("exact parameters required; rationalize float parameters first")
    steps = [(kind, i, Fraction(t)) for kind, i, t in factors]
    # unipotent and coweight factors all have determinant 1
    return GroupElement._det_one(_exact_product(word.n, steps))


def _reduced(column: list, den: int) -> tuple[list, int]:
    g = math.gcd(den, *column)
    return ([x // g for x in column], den // g) if g > 1 else (column, den)


def _exact_product(n: int, steps) -> np.ndarray:
    """The column operations of :func:`sample_positive` on exact ``(kind, i, t)`` steps.

    Column c is held as ``(ints, den)`` for the column ``ints / den``, kept in
    lowest terms, so every step is int arithmetic over a common denominator.
    """
    cols = [([int(r == c) for r in range(n)], 1) for c in range(n)]
    for kind, i, t in steps:
        p, q = t.numerator, t.denominator
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
    rows = [[Fraction(a[r], da) for a, da in cols] for r in range(n)]
    return np.array(rows, dtype=object)


def _least_minor(g, *, stop_below_zero: bool) -> Fraction:
    """The least minor of an exact matrix, walked on the ints of the Laplace pass.

    Every k-minor is ``s / D**k`` for an int ``s``, so within level k the least
    ``s`` gives the least minor; only the n per-level winners become
    ``Fraction``s, and the least of those is the answer.  With
    ``stop_below_zero`` the walk ends at the first negative ``s`` and returns
    that negative minor instead, which decides the sign rule alone.
    """
    entries = g.entries if isinstance(g, GroupElement) else g
    if not linalg.is_rational_array(entries):
        raise TypeError("exact entries required; rationalize float input first")
    least: dict[int, int] = {}
    for _rows, _cols, k, s, scale in linalg._scaled_minors(entries):
        if s < least.get(k, s + 1):
            least[k] = s
            if stop_below_zero and s < 0:
                return Fraction(s, scale**k)
    return min(Fraction(s, scale**k) for k, s in least.items())


def _positivity(least_minor) -> Positivity:
    """The sign rule: a negative minor rules out TNN, a zero one rules out TP."""
    if least_minor < 0:
        return Positivity.NEITHER
    return Positivity.TOTALLY_POSITIVE if least_minor > 0 else Positivity.TOTALLY_NONNEGATIVE


def is_tnn_matrix(g) -> Positivity:
    """Classify a matrix by the signs of all its minors (exact arithmetic).

    Requires exact rational entries; run floats through
    ``linalg.rationalize`` first so that the verdict is a certificate.  The
    minors come smallest first, as scaled ints ``s`` over ``D**k``, from the
    integer Laplace pass behind :func:`tnnflow.linalg.all_minors`; the sign of
    ``s`` is the sign of the minor, and the walk stops at the first negative
    one.  No ``Fraction`` is built on the way.
    """
    return _positivity(_least_minor(g, stop_below_zero=True))


def certify_minors(g) -> tuple[Positivity, Fraction]:
    """``(verdict, least minor)`` of an exact matrix, from one pass over all minors.

    The verdict is the one :func:`is_tnn_matrix` gives; the least minor is
    taken over every minor, so this walk has no early exit.  It keeps the
    least scaled int of each size k and builds one ``Fraction`` per size.
    """
    least = _least_minor(g, stop_below_zero=False)
    return _positivity(least), least


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
    normalized to sum 1, so the choice of basis of each subspace cancels.
    """
    m = np.asarray(m)
    if m.shape != (3, 3):
        raise ValueError("the (v, w) chart lives on the complete SL(3) flag variety")
    field = RATIONAL if linalg.is_rational_array(m) else FLOAT
    c0, c1 = m[:, 0], m[:, 1]
    z = linalg.cross3(c0, c1) if field == RATIONAL else np.cross(c0, c1)
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
    if coords.field == RATIONAL:
        eq_tol, sign_tol = 0, 0
    else:
        eq_tol, sign_tol = tol, tol
    if abs(res["sum_v"]) > eq_tol or abs(res["sum_w"]) > eq_tol:
        return Membership.OUTSIDE
    if abs(res["orthogonality"]) > eq_tol:
        return Membership.OUTSIDE
    if res["min_coord"] < -sign_tol:
        return Membership.OUTSIDE
    if res["min_coord"] <= sign_tol:
        return Membership.NONNEGATIVE_BOUNDARY
    return Membership.POSITIVE_PART
