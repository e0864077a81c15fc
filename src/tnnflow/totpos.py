"""Total positivity in SL(n) and its flag varieties.

Positive elements are produced by factorizations along reduced words for the
longest permutation, multiplied out by one column operation per letter;
positivity of a given matrix is certified by the sign of every minor, all of
them exact and taken in one integer Laplace pass
(:func:`tnnflow.linalg.all_minors`) whose verdict and least minor come
together.  Flags are represented by a unique
canonical matrix (block-wise reduced column echelon form with bottom-most
pivots), and for the complete SL(3) flag variety we expose the classical
six-coordinate chart ``(v, w)`` together with its membership oracle:

    v1 + v2 + v3 = 1,   w1 + w2 + w3 = 1,   v1*w1 - v2*w2 + v3*w3 = 0,

with all six coordinates nonnegative exactly on the closure of the positive
part.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import linalg
from .chevalley import FLOAT, RATIONAL, GroupElement, _coerce_scalar

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
    "FlagPoint",
    "flag_of",
    "Sl3Coords",
    "sl3_coords",
    "sl3_flag_from_coords",
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
    with_torus: bool = False,
    field: str = RATIONAL,
) -> FactorizationParams:
    """Draw random factorization parameters (exact rationals by default).

    ``zero_mask`` pins the chosen positions to zero, which lands the sample
    on the boundary of the nonnegative part; ``group=True`` draws two
    parameters per letter for an upper*torus*lower product.
    """
    count = (2 if group else 1) * len(word)
    if field == RATIONAL:
        vals = [_rational_positive(rng) for _ in range(count)]
        torus = tuple(_rational_positive(rng) for _ in range(word.n - 1))
    else:
        vals = list(np.exp(rng.uniform(-3.0, 3.0, size=count)))
        torus = tuple(np.exp(rng.uniform(-3.0, 3.0, size=word.n - 1)))
    if zero_mask is not None:
        zero = Fraction(0) if field == RATIONAL else 0.0
        for k in zero_mask:
            vals[k] = zero
    return FactorizationParams(word, tuple(vals), torus if (with_torus or group) else None)


def sample_positive(params: FactorizationParams, side: str) -> GroupElement:
    """Multiply out a factorization: an element of U+, U-, or all of SL(n).

    ``side='group'`` forms the product (upper unipotent) * (torus) *
    (lower unipotent); with strictly positive parameters this lands in the
    totally positive part, and letting parameters degenerate to zero sweeps
    out the nonnegative closure.

    Right multiplication by a factor is a column operation on the product so
    far, so each letter costs O(n): x_i(t) adds t * column i-1 to column i,
    y_i(t) adds t * column i to column i-1, and the coweight h_i(s) scales
    column i-1 by s and column i by 1/s (columns counted from 0).  The
    product is exact when every parameter is, and binary64 otherwise.
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
    scalars = [_coerce_scalar(t) for _, _, t in factors]
    field = FLOAT if any(f == FLOAT for _, f in scalars) else RATIONAL
    m = linalg.rational_identity(word.n) if field == RATIONAL else np.eye(word.n)
    for (kind, i, _), (t, _) in zip(factors, scalars):
        if kind == "x":
            m[:, i] += t * m[:, i - 1]
        elif kind == "y":
            m[:, i - 1] += t * m[:, i]
        else:
            m[:, i - 1] *= t
            m[:, i] *= 1 / t
    return GroupElement(m, field)


def _least_minor(g, *, stop_below_zero: bool):
    entries = g.entries if isinstance(g, GroupElement) else g
    if not linalg.is_rational_array(entries):
        raise TypeError("exact entries required; rationalize float input first")
    least = None
    for _rows, _cols, value in linalg.all_minors(entries):
        if least is None or value < least:
            least = value
            if stop_below_zero and value < 0:
                break
    return least


def _positivity(least_minor) -> Positivity:
    """The sign rule: a negative minor rules out TNN, a zero one rules out TP."""
    if least_minor < 0:
        return Positivity.NEITHER
    return Positivity.TOTALLY_POSITIVE if least_minor > 0 else Positivity.TOTALLY_NONNEGATIVE


def is_tnn_matrix(g) -> Positivity:
    """Classify a matrix by the signs of all its minors (exact arithmetic).

    Requires exact rational entries; run floats through
    ``linalg.rationalize`` first so that the verdict is a certificate.  The
    minors come smallest first from the integer Laplace pass of
    :func:`tnnflow.linalg.all_minors`, and the walk stops at the first
    negative one.
    """
    return _positivity(_least_minor(g, stop_below_zero=True))


def certify_minors(g) -> tuple[Positivity, Fraction]:
    """``(verdict, least minor)`` of an exact matrix, from one pass over all minors.

    The verdict is the one :func:`is_tnn_matrix` gives; the least minor is
    taken over every minor, so this walk has no early exit.
    """
    least = _least_minor(g, stop_below_zero=False)
    return _positivity(least), least


# ---------------------------------------------------------------------------
# flags


def _last_nonzero(col, field: str, scale_tol: float):
    if field == RATIONAL:
        idx = [r for r in range(col.shape[0]) if col[r] != 0]
    else:
        thresh = scale_tol * max(1.0, float(np.max(np.abs(col))))
        idx = [r for r in range(col.shape[0]) if abs(col[r]) > thresh]
    return idx[-1] if idx else None


@dataclass(frozen=True)
class FlagPoint:
    """A point of the partial flag variety of type ``J``, in canonical form.

    The matrix columns span the nested subspaces of dimensions
    ``{1..n-1} - J``; within each block the columns are in reduced column
    echelon form with pivots normalized to 1, placed bottom-most, cleared
    across the whole matrix, and ordered by ascending pivot row.  Two flag
    points are equal iff their canonical matrices agree.
    """

    mat: np.ndarray
    J: frozenset
    field: str
    pivot_rows: tuple = dc_field(compare=False, default=())

    def __post_init__(self):
        self.mat.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def dims(self) -> tuple:
        return tuple(d for d in range(1, self.n) if d not in self.J)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagPoint):
            return NotImplemented
        if self.J != other.J or self.field != other.field:
            return False
        if self.field == RATIONAL:
            return bool(np.equal(self.mat, other.mat).all())
        return bool(np.array_equal(self.mat, other.mat))

    def approx_eq(self, other: "FlagPoint", tol: float = 1e-10) -> bool:
        if self.J != other.J:
            return False
        a = linalg.to_float(self.mat)
        b = linalg.to_float(other.mat)
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        return bool(np.max(np.abs(a - b)) <= tol * scale)

    def to_float(self) -> "FlagPoint":
        if self.field == FLOAT:
            return self
        return FlagPoint(linalg.to_float(self.mat), self.J, FLOAT, self.pivot_rows)


def flag_of(g, J=(), *, float_tol: float = 1e-10) -> FlagPoint:
    """Canonical representative of the flag spanned by ``g``'s leading columns.

    ``g`` may be a group element or any invertible square matrix (exact or
    float entries).  Column operations only ever mix columns within the same
    nested subspace, so the flag is unchanged; the result is the unique
    block-echelon representative described on :class:`FlagPoint`.
    """
    if isinstance(g, GroupElement):
        entries, field = g.entries, g.field
    else:
        entries = np.asarray(g)
        field = RATIONAL if linalg.is_rational_array(entries) else FLOAT
    J = frozenset(J)
    n = entries.shape[0]
    if any(j < 1 or j >= n for j in J):
        raise ValueError("J must be a subset of {1, ..., n-1}")
    a = entries.copy()
    a.setflags(write=True)
    dims = [d for d in range(1, n) if d not in J]
    bounds = [0] + dims + [n]
    done: list[tuple[int, int]] = []  # (pivot row, column) in final positions
    for b in range(len(bounds) - 1):
        lo, hi = bounds[b], bounds[b + 1]
        for pr, pc in done:
            for c in range(lo, hi):
                coef = a[pr, c]
                if coef != 0:
                    a[:, c] = a[:, c] - coef * a[:, pc]
        remaining = list(range(lo, hi))
        block_pivots: list[tuple[int, int]] = []
        while remaining:
            located = [(c, _last_nonzero(a[:, c], field, float_tol)) for c in remaining]
            if any(r is None for _, r in located):
                raise ValueError("columns do not span a flag (singular input)")
            c0, r0 = max(located, key=lambda cr: (cr[1], -cr[0]))
            a[:, c0] = a[:, c0] / a[r0, c0]
            for c in range(lo, hi):
                if c != c0 and a[r0, c] != 0:
                    a[:, c] = a[:, c] - a[r0, c] * a[:, c0]
            block_pivots.append((r0, c0))
            remaining.remove(c0)
        order = sorted(block_pivots)
        a[:, lo:hi] = a[:, [c for _, c in order]]
        done.extend((r, lo + k) for k, (r, _) in enumerate(order))
    if field == FLOAT:
        a[np.abs(a) == 0.0] = 0.0  # normalize -0.0
    pivot_rows = tuple(r for r, _ in sorted(done, key=lambda rc: rc[1]))
    return FlagPoint(a, J, field, pivot_rows)


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


def sl3_coords(flag: FlagPoint) -> Sl3Coords:
    """Extract (v, w) from a complete SL(3) flag.

    The line gives ``v`` directly; the plane spanned by the first two columns
    has normal ``z = col1 x col2``, and ``w = (z1, -z2, z3)`` up to the sum-1
    normalization.
    """
    if flag.n != 3 or flag.J:
        raise ValueError("the (v, w) chart lives on the complete SL(3) flag variety")
    c0, c1 = flag.mat[:, 0], flag.mat[:, 1]
    if flag.field == RATIONAL:
        z = linalg.cross3(c0, c1)
    else:
        z = np.cross(np.asarray(c0, dtype=np.float64), np.asarray(c1, dtype=np.float64))
    v = _normalize_sum(tuple(c0), flag.field)
    w = _normalize_sum((z[0], -z[1], z[2]), flag.field)
    return Sl3Coords(v, w, flag.field)


def sl3_flag_from_coords(coords: Sl3Coords) -> FlagPoint:
    """Exact inverse of :func:`sl3_coords` on chart points (rational only)."""
    if coords.field != RATIONAL:
        raise TypeError("building a flag from coordinates is an exact operation")
    v = np.array([Fraction(x) for x in coords.v], dtype=object)
    wt = np.array(
        [Fraction(coords.w[0]), -Fraction(coords.w[1]), Fraction(coords.w[2])], dtype=object
    )
    c1 = linalg.cross3(wt, v)  # lies in the plane normal to wt, independent of v
    m = np.empty((3, 3), dtype=object)
    m[:, 0], m[:, 1], m[:, 2] = v, c1, wt
    d = linalg.det(m)
    if d == 0:
        raise ValueError("degenerate coordinates do not determine a flag")
    m[:, 2] = m[:, 2] / d
    return flag_of(GroupElement(m, RATIONAL))


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
