"""Total positivity in SL(n) and its flag varieties.

Positive elements are produced by factorizations along reduced words for the
longest permutation.  Every word of positive letters runs in one letter loop,
:func:`_run_word`, on vectors of a wedge power of C^n, adding only; only the
number type varies: Python ints for one exact product, object ints for the
fold gate's stack, binary64 for the float gates' stacks.  Exact parameters
are int ratios ``(p, q)``, random ones those of binary64 draws
(``sample_params`` and ``sample_positive`` are the ``Fraction`` views of the
draw and of the product).  Positivity of a given matrix is
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
import functools
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


def _float_lower_samples(word: ReducedWord, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` lower-unipotent products along ``word`` in binary64, ``(count, n, n)``.

    One ``rng.uniform`` call draws the stream of ``count`` calls of
    :func:`sample_params`, torus draws included, and leaves ``rng`` where they
    leave it; each parameter is ``math.exp`` of its draw, the float whose exact
    ratio :func:`_positive_ratio` gives, and the letter loop :func:`_run_word`
    multiplies the batch out in binary64 (:func:`_float_add`).  The float gates
    sample this way: they certify no exact object, so no int product is formed.
    """
    ell, n = len(word), word.n
    draws = rng.uniform(-3.0, 3.0, (count, ell + n - 1))[:, :ell].tolist()
    steps = [("y", i, t) for i, t in zip(word.letters, np.array([[math.exp(x) for x in row] for row in draws]).T)]
    return _run_word(n, 1, steps, np.tile(np.eye(n), (count, 1, 1)), _float_add)


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


def _scaled_product(params: FactorizationParams, side: str) -> tuple[list, list]:
    """The product of :func:`sample_positive` as column-scaled ints ``(columns, scales)``, each
    column in lowest terms: the letter loop :func:`_run_word` on the identity's rows in Python
    ints gives the columns, each over its own denominator, and each is divided by its gcd once.
    """
    n = params.word.n
    start = [([int(r == c) for r in range(n)], 1) for c in range(n)]
    columns = _run_word(n, 1, _steps(params, side), start, _int_add, _int_scale)
    gcds = [math.gcd(den, *ints) for ints, den in columns]
    return [[x // g for x in c] for (c, _), g in zip(columns, gcds)], [d // g for (_, d), g in zip(columns, gcds)]


def _steps(params: FactorizationParams, side: str) -> list:
    """The factors of the product on ``side``, left to right, as ``(kind, i, p, q)`` for
    the factor x_i, y_i or the coweight h_i of the parameter ``p / q`` (a group product
    with no torus has none): each parameter through :func:`_exact_ratio`, so float ones
    raise ``TypeError``.
    """
    ell = len(params.word)

    def along(kind, ts):
        return [(kind, i, *_exact_ratio(tk)) for i, tk in zip(params.word.letters, ts)]

    # with 2 * ell parameters the lower factor takes the second half
    if side == "upper":
        return along("x", params.t[:ell])
    if side == "lower":
        return along("y", params.t[-ell:])
    if side != "group":
        raise ValueError(f"side must be 'upper', 'lower' or 'group', got {side!r}")
    coweights = [("coweight", i, *_exact_ratio(s)) for i, s in enumerate(params.torus or (), 1)]
    return along("x", params.t[:ell]) + coweights + along("y", params.t[-ell:])


# ---------------------------------------------------------------------------
# the letter loop


@functools.cache
def _wedge_table(n: int, k: int) -> tuple:
    """``(members, target, moves)``: F_i on the k-th wedge power of C^n, whose basis is the
    lexicographic k-subsets of {1..n}, where F_i replaces i by i+1 (structure constant +1).
    ``members[a, i]`` is 1 if i + 1 is in subset a; ``target[i, a]`` is F_i's image of
    subset a, -1 where F_i kills it; ``moves[i]`` is ``(sources, targets)``, the subsets F_i
    keeps and their images.  The cache hands the same table to every call: it is read-only."""
    subsets = list(itertools.combinations(range(n), k))
    index = {s: a for a, s in enumerate(subsets)}
    members = np.zeros((len(subsets), n), dtype=np.int64)
    members[np.arange(len(subsets))[:, None], subsets] = 1
    target = np.full((n, len(subsets)), -1)
    for a, s in enumerate(subsets):
        for m, x in enumerate(s):  # x + 1 moves to x + 2 under F_{x+1}
            if x + 1 < n and s[m + 1 : m + 2] != (x + 1,):
                target[x + 1, a] = index[s[:m] + (x + 1,) + s[m + 1 :]]
    members.setflags(write=False)
    target.setflags(write=False)
    moves = tuple((tuple(np.flatnonzero(row >= 0).tolist()), tuple(row[row >= 0].tolist())) for row in target)
    return members, target, moves


def _run_word(n: int, k: int, steps, state, add, scale=None):
    """Right-multiply a stack of row vectors on the k-th wedge power of C^n, in place, by
    the letters ``steps`` in order, and return it: the one loop of every word of letters.

    A letter ``(kind, i, *value)`` is x_i = I + t E_i, y_i = I + t F_i or the coweight
    h_i(t).  Along each move a -> b of F_i, x_i adds t v[a] to v[b] and y_i adds t v[b]
    to v[a]; no source is a target, and nothing is subtracted (Fomin-Zelevinsky 2000).
    h_i(t) scales v[S] by t^([i - 1 in S] - [i in S]).  From the rows of the identity at
    k = 1 the stack is the product.  Number types: Python ints, entries ``(ints over the
    starts, den)`` (:func:`_int_add`, :func:`_int_scale`); object ints for m words, ``(u,
    dens)``, (m, starts, entries) and (m, entries) (:func:`_stack_add`); binary64 (:func:`_float_add`).
    """
    members, _, moves = _wedge_table(n, k)
    for kind, i, *value in steps:
        if kind == "coweight":
            scale(state, (members[:, i - 1] - members[:, i]).tolist(), *value)
        else:
            add(state, *(moves[i] if kind == "x" else moves[i][::-1]), *value)
    return state


def _int_add(entries: list, sources, targets, p: int, q: int) -> None:
    """A letter of parameter p / q on Python int entries, each target over the LCM of its
    denominator and q times its source's; a zero p or an all-zero source changes nothing."""
    for s, d in zip(sources, targets):
        (a, da), (b, db) = entries[d], entries[s]
        if p and any(b):
            den = math.lcm(da, q * db)
            fa, fb = den // da, p * (den // (q * db))
            entries[d] = ([fa * x + fb * y for x, y in zip(a, b)], den)


def _int_scale(entries: list, exponents, p: int, q: int) -> None:
    """The coweight of parameter p / q on Python int entries: entry a times (p / q)^e, e in {-1, 0, 1}."""
    for a, e in enumerate(exponents):
        if e:
            ints, den = entries[a]
            entries[a] = ([x * p for x in ints], den * q) if e > 0 else ([x * q for x in ints], den * p)


def _stack_add(stack: tuple, sources, targets, p: np.ndarray, q: np.ndarray) -> None:
    """:func:`_int_add` on m words of object ints at once, word r's parameter ``p[r] / q[r]``."""
    u, dens = stack
    for s, d in zip(sources, targets):
        da, qdb = dens[:, d], q * dens[:, s]
        den = np.where(p != 0, np.lcm(da, qdb), da)
        u[..., d] = (den // da)[:, None] * u[..., d] + (p * (den // qdb))[:, None] * u[..., s]
        dens[:, d] = den


def _float_add(u: np.ndarray, sources, targets, t: np.ndarray) -> None:
    """A letter on m words in binary64, word r's parameter ``t[r]``: each entry of a product is
    within 2 (letters) ulps, relative, of the exact one rounded, and zero where that is."""
    for s, d in zip(sources, targets):
        u[..., d] += t[:, None] * u[..., s]


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
    level on the ints of the Laplace kernel :func:`linalg._minor_levels`, which takes
    this one matrix as its ``(columns, scales)`` pair.

    A k-minor on columns C is ``s / den`` for an int ``s`` and the product
    ``den`` of the column scales of C, so within one column set the least
    ``s`` gives the least minor, by plain int comparison; the per-set winners
    are compared by :func:`_least_ratio`, one comparison per column set, and
    one ``Fraction`` is built for the answer.
    """
    least = None  # (s, den) of the least minor so far
    for values, dens in linalg._minor_levels(columns, scales):
        least = _least_ratio(least, zip(values.min(axis=0).tolist(), dens.tolist()))
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
