"""Highest-weight representations of sl(n) and the projective eigenchart.

A partial flag variety with recorded dimensions ``{1..n-1} - J`` embeds in
the projectivization of the irreducible module whose highest weight is the
sum of the fundamental weights over the recorded dimensions.  The module is
realized concretely: fundamental modules are wedge powers of the defining
representation; a general one is carved out of the tensor product of its
fundamental factors as the lowering closure of the highest vector, with an
exact reduced-echelon basis so that coordinates can be read off pivot
positions without solving anything.

Each lowering generator F_i moves one factor's basis index at a time with
structure constant +1.  Its action on the k-subsets, the basis of one wedge
power, is the letter loop's cached table per (n, k), ``totpos._wedge_table``;
on the tensor product it is stored as index tables, one target list per wedge
factor, built by index arithmetic on the digits of the flat index, and
applied to sparse ``{flat index: int}`` vectors.  Every
vector of the closure is a weight vector, so each echelon step touches one
weight space only; the module is built with its weight spaces, and keeps each
pivot's weight as the occupancy of the indices 1..n in its factor subsets.
The basis rows stay sparse primitive int vectors: they are the module's only
exact form, and the chart reads them in float64, one block of echelon rows
per weight space of the module.  A flag's image is the tensor product of the
leading compound columns of a matrix; its binary64 coordinates are read off
at the pivots, one column entry per factor.  From factorization parameters
no matrix is formed: the letter loop ``totpos._run_word`` runs the transposed
word on e_1 ^ ... ^ e_k, a few int adds per letter, and no term is
subtracted.  A binary64 matrix, or a stack of float frames, takes stacked
dets.

The symmetric operator ``sum_i E_i + F_i`` acting on the module has a simple
top eigenvalue and a closed-form orthonormal eigenbasis: the orthogonal
eigenbasis P of its defining matrix, acting on orthonormal bases of the
weight spaces.  Those bases are orthonormalized in stacked groups: the
weight spaces of one block shape (rows x support columns) share one stacked
QR, and a 1 x 1 space, one row with one ambient entry, is its own unit
basis vector in closed form.  The affine chart of projective space centered
at the top eigenline, expressed in that eigenbasis, is the coordinate system
in which the induced dynamics become diagonal (see :mod:`tnnflow.flow`).  The
chart keeps only the map from module coordinates to eigenbasis components, so
it is read one way, from a line to its point; a flowed flag is read off its
standard-basis frame, ``flag_frame(g, t)`` (:func:`tnnflow.flow.flag_frame`),
not rebuilt from its point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .chevalley import FLOAT, GroupElement, generator_sum_spectrum
from .totpos import FactorizationParams, _int_add, _int_scale, _run_word, _steps, _wedge_table, flag_minors

__all__ = [
    "Weight",
    "lambda_for",
    "weyl_dim",
    "RepModule",
    "build_rep",
    "line_of",
    "EigenChart",
    "eigenchart",
    "chart_coords",
    "ChartOverflowError",
]


class ChartOverflowError(ValueError):
    """The line is orthogonal to the top eigenvector: no chart coordinates."""


@dataclass(frozen=True)
class Weight:
    """A dominant integral weight of sl(n), as fundamental-weight coefficients."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.n - 1:
            raise ValueError("need one coefficient per fundamental weight")
        if any(c < 0 or int(c) != c for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative integers")

    @property
    def support(self) -> frozenset:
        return frozenset(k for k in range(1, self.n) if self.coeffs[k - 1] > 0)


def lambda_for(n: int, J) -> Weight:
    """The multiplicity-one weight supported exactly on the recorded dimensions.

    For the flag variety of type ``J`` the recorded dimensions are
    ``{1..n-1} - J``; taking each coefficient there equal to 1 is the minimal
    regular-on-support choice.
    """
    J = frozenset(J)
    if any(j < 1 or j >= n for j in J):
        raise ValueError("J must be a subset of {1, ..., n-1}")
    support = [k for k in range(1, n) if k not in J]
    if not support:
        raise ValueError("J leaves no recorded dimensions")
    return Weight(n, tuple(1 if k not in J else 0 for k in range(1, n)))


def weyl_dim(weight: Weight) -> int:
    """Dimension of the irreducible module, by the Weyl product formula.

    The positive root of the interval i..j (1 <= i <= j <= n-1) gives the factor
    (c_i + ... + c_j + j - i + 1) / (j - i + 1), which is 1 unless the interval
    holds a nonzero coefficient, so only those factors are taken, their sums
    read off prefix sums: n - 1 factors at lambda = omega_1.
    """
    n, c = weight.n, weight.coeffs
    prefix, num, den, first = [0, *itertools.accumulate(c)], 1, 1, n  # first: the least k >= i with c_k > 0
    for i in range(n - 1, 0, -1):
        first = i if c[i - 1] else first
        for j in range(first, n):
            num, den = num * (prefix[j] - prefix[i - 1] + j - i + 1), den * (j - i + 1)
    dim, rest = divmod(num, den)
    assert rest == 0
    return dim


# ---------------------------------------------------------------------------
# module construction


def _tensor_moves(n: int, factors):
    """F_i on the tensor product of wedge factors, as index tables, and the occupancies.

    Ambient basis vectors are tuples of sorted factor subsets, flattened in
    row-major order (the first factor varies slowest); the digits of a flat
    index are its subsets' indices among the lexicographic k-subsets.  Each
    factor's members and F_i targets are read from its :func:`_wedge_table`.
    ``f[i]`` holds one target list per wedge factor: entry ``a`` is the flat
    index that F_i, acting on that factor, sends basis vector ``a`` to, or -1
    where it kills the factor's subset.  ``occupancy[a, i]`` counts the factor
    subsets of basis vector ``a`` that hold index i + 1, so its H_i-eigenvalue
    is ``occupancy[a, i - 1] - occupancy[a, i]``.
    """
    dims = [math.comb(n, k) for k in factors]
    digits = np.indices(dims).reshape(len(dims), -1)
    flat = np.arange(digits.shape[1])
    f: dict = {i: [] for i in range(1, n)}
    occupancy = np.zeros((len(flat), n), dtype=np.int64)
    for j, (k, digit) in enumerate(zip(factors, digits)):
        stride = math.prod(dims[j + 1 :])
        members, target, _ = _wedge_table(n, k)
        occupancy += members[digit]
        for i in range(1, n):
            moved = target[i][digit]
            f[i].append(np.where(moved >= 0, flat + (moved - digit) * stride, -1).tolist())
    return f, occupancy


def _apply(targets, vec: dict) -> dict:
    """A generator given by its target lists, applied to a sparse vector."""
    out: dict = {}
    for a, x in vec.items():
        for moved in targets:
            b = moved[a]
            if b >= 0:
                out[b] = out.get(b, 0) + x
    return {b: x for b, x in out.items() if x != 0}


@dataclass(frozen=True, eq=False)
class RepModule:
    """An irreducible sl(n)-module with an exact weight-coordinate basis.

    ``rows`` span the module inside the tensor product of its fundamental
    factors, as sparse maps ``{flat ambient index: int}`` in the order of
    their pivots ``pivot_cols``; the first pivot is flat index 0, the highest
    vector.  Each row is a primitive int vector (its entries have gcd 1)
    with a positive pivot entry, as :func:`linalg._scaled_echelon` returns
    it: the reduced-echelon basis row is ``row / row[pivot]``.  Module
    coordinates of an ambient vector known to lie in the module, in the
    reduced-echelon basis, are simply its entries at ``pivot_cols``.

    The weight spaces come with the module.  ``occupancy`` is the read-only
    dim x n int array whose row r counts, for each index 1..n, the factor
    subsets of pivot r that hold it: the weight of row r, whose H_i-eigenvalue
    is ``occupancy[r, i - 1] - occupancy[r, i]``.  ``spaces`` lists the row
    indices of each weight space, in pivot order, the spaces in the order of
    their first rows.
    """

    n: int
    weight: Weight
    factors: tuple
    dim: int
    ambient_dim: int
    rows: tuple
    pivot_cols: tuple
    occupancy: np.ndarray
    spaces: tuple


def build_rep(weight: Weight) -> RepModule:
    """Construct the irreducible module by lowering closure (exact).

    Inside the tensor product of fundamental factors, apply the lowering
    operators to the highest vector, one depth at a time: the weight space
    V_mu is spanned by the F_i-images of the weight spaces V_{mu + alpha_i}
    one level up, and the integer echelon pass
    :func:`linalg._scaled_echelon` gives each its own reduced-echelon basis.
    Vectors are sparse maps ``flat index -> int``: each basis row is held as
    a primitive int vector over its pivot entry, and F_i moves entries with
    constant +1, so lowering stays on integers, and so do the rows kept.

    The closure is a submodule by theorem: by PBW, U(g) v = U(n-) U(b) v =
    U(n-) v for the highest vector v.  So no generator is re-applied here;
    the closure dimension is checked against the Weyl dimension formula,
    and a mismatch raises ``AssertionError``.
    """
    n = weight.n
    factors = tuple(
        k for k in range(1, n) for _ in range(weight.coeffs[k - 1])
    )
    if not factors:
        raise ValueError("the zero weight has no projective geometry attached")
    f_moves, occupancy = _tensor_moves(n, factors)
    # each count is at most len(factors), so as base len(factors) + 1 digits an
    # occupancy row is one int: equal codes, equal weights
    codes = (occupancy @ (len(factors) + 1) ** np.arange(n)).tolist()

    # the top subset of each factor is lexicographically first
    rows = {0: {0: 1}}  # pivot column -> primitive int basis vector
    level = [rows[0]]
    while level:
        spanning: dict = {}
        for vec in level:
            for i in range(1, n):
                lowered = _apply(f_moves[i], vec)
                if lowered:
                    spanning.setdefault(codes[next(iter(lowered))], []).append(lowered)
        level = []
        for vectors in spanning.values():
            basis = linalg._scaled_echelon(vectors)
            rows.update(basis)
            level.extend(basis.values())

    pivots = sorted(rows)
    if len(pivots) != weyl_dim(weight):
        raise AssertionError(
            f"closure dimension {len(pivots)} != Weyl dimension {weyl_dim(weight)}; construction bug"
        )
    spaces: dict = {}
    for r, p in enumerate(pivots):
        spaces.setdefault(codes[p], []).append(r)
    occupancy = occupancy[pivots]
    occupancy.setflags(write=False)
    return RepModule(
        n=n,
        weight=weight,
        factors=factors,
        dim=len(pivots),
        ambient_dim=len(codes),
        rows=tuple(rows[p] for p in pivots),
        pivot_cols=tuple(pivots),
        occupancy=occupancy,
        spaces=tuple(map(tuple, spaces.values())),
    )


# ---------------------------------------------------------------------------
# the embedding of the flag variety


def line_of(rep: RepModule, g, side: str = "lower") -> np.ndarray:
    """Image of the highest-weight line under a group element, in binary64.

    ``g`` is factorization parameters, whose product on ``side`` is never
    formed, or a binary64 :class:`~tnnflow.chevalley.GroupElement`; anything
    else, an exact element included, raises ``TypeError``: an exact flag is
    embedded from its parameters.  The highest vector of the k-th wedge factor
    is e_1 ^ ... ^ e_k, so its image is the leading compound column of g, and
    the line is spanned by the tensor product of those columns.  Only the
    module's pivot coordinates are multiplied out: the digits of a pivot's
    ambient index pick one entry of each factor's column.  The result holds
    homogeneous coordinates in the reduced-echelon basis.

    From parameters, each distinct factor's column is the leading row of the
    k-th compound of g^T, whose word the letter loop
    :func:`~tnnflow.totpos._run_word` runs on e_1 ^ ... ^ e_k in Python ints,
    and each coordinate is the correctly rounded value of the exact one: a
    product of ints over the product of the factors' denominators, divided
    once.  For float g each is a binary64 product of ``np.linalg.det``
    minors, by the stacked kernel :func:`_float_lines` on a stack of one.
    """
    if isinstance(g, FactorizationParams):
        # g^T's word: g's letters right to left, x_i(t)^T = y_i(t)
        steps = [({"x": "y", "y": "x"}.get(kind, kind), i, p, q) for kind, i, p, q in reversed(_steps(g, side))]
        if g.word.n != rep.n:
            raise ValueError(f"a {g.word.n} x {g.word.n} matrix does not act on a module for n = {rep.n}")
        columns = {k: _run_word(rep.n, k, steps, [([int(a == 0)], 1) for a in range(math.comb(rep.n, k))],
                                _int_add, _int_scale) for k in set(rep.factors)}
        ratio = functools.reduce(np.multiply, (np.array([(w[0], den) for w, den in columns[k]], dtype=object)[d]
                                               for k, d in zip(rep.factors, _pivot_digits(rep))))
        return (ratio[:, 0] / ratio[:, 1]).astype(np.float64)
    if not (isinstance(g, GroupElement) and g.field == FLOAT):
        raise TypeError("g must be FactorizationParams or a binary64 GroupElement: embed an exact flag by its parameters")
    if g.n != rep.n:
        raise ValueError(f"a {g.n} x {g.n} matrix does not act on a module for n = {rep.n}")
    return _float_lines(rep, linalg.to_float(g.entries)[None])[0]


def _pivot_digits(rep: RepModule) -> tuple:
    """Per wedge factor, the index of each pivot's subset: the entry of its column it reads."""
    return np.unravel_index(rep.pivot_cols, [math.comb(rep.n, k) for k in rep.factors])


def _float_lines(rep: RepModule, frames: np.ndarray) -> np.ndarray:
    """The lines of a stack of float matrices, ``(m, n, n)`` to ``(m, dim)``, in binary64.

    Each pivot coordinate is a product of :func:`~tnnflow.totpos.flag_minors`,
    one per factor, run left to right, elementwise as ``math.prod`` would, so
    each row is bit for bit the line of its matrix alone.
    """
    levels = flag_minors(frames, set(rep.factors))
    return functools.reduce(np.multiply, (levels[k][:, d] for k, d in zip(rep.factors, _pivot_digits(rep))))


# ---------------------------------------------------------------------------
# eigenchart


@dataclass(frozen=True, eq=False)
class EigenChart:
    """Affine chart of P(V) centered at the top eigenline of the generator sum.

    ``mu`` holds the eigenvalues, descending, and ``eigvecs_inv`` maps module
    coordinates to components along the matching orthonormal eigenvectors.
    Chart coordinates of a line are ratios a_k / a_0 of its eigenbasis
    components, k = 1..dim-1.  The chart is read one way only, from a line to
    its point: no eigenvector matrix is kept.
    """

    rep: RepModule
    mu: np.ndarray
    eigvecs_inv: np.ndarray

    @property
    def ncoords(self) -> int:
        return self.rep.dim - 1

    @property
    def gap(self) -> float:
        return float(self.mu[0] - self.mu[1])


def _chart_bytes(weight: Weight) -> int:
    """A floor on the bytes of the dense float64 arrays :func:`eigenchart` holds at once
    for the module of ``weight``, with no module built: two ambient x dim frames while
    rho(P) is applied (the input of a factor's step and its output) and the dim x dim
    ``eigvecs_inv``.  The ambient dim is the product of C(n, k) over the wedge factors.
    Where the floor passes 2^64 bytes with the dim taken as its own floor, the largest
    C(n, k) of a factor (each ratio of the Weyl product grows with the weight), that
    floor is returned and the Weyl product, which takes minutes at n = 1000, is skipped.
    """
    n = weight.n
    ambient = math.prod(math.comb(n, k) ** c for k, c in enumerate(weight.coeffs, 1))
    dim = max(math.comb(n, k) for k in weight.support)
    if 16 * ambient * dim <= 2**64:
        dim = weyl_dim(weight)
    return 8 * (2 * ambient * dim + dim * dim)


@functools.cache
def _compound(n: int, k: int) -> np.ndarray:
    """The k-th compound of the eigenbasis P of the generator sum on C^n: its k x k
    minors on lexicographic k-subsets.  The cache hands the same array to every call,
    so it is read-only."""
    p = generator_sum_spectrum(n)[1]
    s = np.array(list(itertools.combinations(range(n), k)))
    compound = np.linalg.det(p[s[:, None, :, None], s[None, :, None, :]])
    compound.setflags(write=False)
    return compound


def eigenchart(rep: RepModule) -> EigenChart:
    """Diagonalize the generator sum on the module, in closed form, and center a chart on top.

    On C^n the generator sum is ``P diag(d) P^T`` (:func:`generator_sum_spectrum`).
    On the ambient tensor product of wedge powers it is therefore
    ``rho(P) D rho(P)^T``: rho(P) is the tensor product of the compounds of the
    orthogonal P, one per wedge factor, and D multiplies each weight space by
    <mu, d>.  The weight spaces of the module (``rep.spaces``, with their
    weights ``rep.occupancy``) are orthogonal in the ambient basis, so an
    orthonormal basis of each, mapped by rho(P), is an orthonormal eigenbasis;
    each weight space's echelon rows are orthonormalized in pivot order with a
    positive diagonal.  The spaces are grouped by block shape (rows x support
    columns) and each group takes one stacked QR; a 1 x 1 space, one row with
    one ambient entry, has q = 1 and takes none, and its column of
    ``eigvecs_inv`` is its frame row.  Each group is scattered into the frame;
    only the frame rows that are read, the support columns of the spaces, are
    gathered after rho(P), and each group's columns of ``eigvecs_inv`` are
    assembled in one step; every entry keeps the bits of the same steps taken
    one space at a time (the tests hold that route as the oracle).
    Eigenvalues are sorted descending by a stable sort.
    The top one, <lambda, d>, is simple: every other weight is lambda minus a
    sum of positive roots e_i - e_j (i < j), and d is strictly decreasing.
    """
    d = generator_sum_spectrum(rep.n)[0]
    dims = [math.comb(rep.n, k) for k in rep.factors]
    # a 1 x 1 space (one row, one ambient entry; the top space is one) has q = 1
    units, shapes = [], {}
    for rows in rep.spaces:
        cols = sorted(set().union(*(rep.rows[r] for r in rows)))
        if len(cols) == 1:
            units.append((rows[0], cols[0]))
            continue
        block = [[rep.rows[r].get(c, 0) / rep.rows[r][rep.pivot_cols[r]] for c in cols] for r in rows]
        shapes.setdefault((len(rows), len(cols)), []).append((rows, cols, block))
    unit_rows, unit_cols = np.array(units).T
    # per shape: stacked rows (m, r), support columns (m, c) and blocks (m, r, c)
    groups = [[np.array(part) for part in zip(*members)] for members in shapes.values()]
    frame = np.zeros((rep.ambient_dim, rep.dim))
    frame[unit_cols, unit_rows] = 1.0
    for rows, cols, blocks in groups:  # one QR per shape, each q with a positive diagonal
        q, tri = np.linalg.qr(np.swapaxes(blocks, 1, 2))
        frame[cols[:, :, None], rows[:, None, :]] = q * np.sign(np.diagonal(tri, axis1=1, axis2=2))[:, None, :]
    frame = frame.reshape(*dims, rep.dim)
    for axis, k in enumerate(rep.factors):  # frame <- rho(P) frame, one factor at a time
        frame = np.moveaxis(np.tensordot(_compound(rep.n, k), frame, axes=(1, axis)), 0, axis)
    mu = rep.occupancy @ d
    order = np.argsort(-mu, kind="stable")

    def read(cols):  # the frame rows at these ambient indices, columns in eigenvalue order
        return frame[np.unravel_index(cols, dims)][..., order]

    # the components frame^T x of the ambient vector x = sum_r c_r row_r
    inv = np.empty((rep.dim, rep.dim))
    inv[:, unit_rows] = read(unit_cols).T  # a unit row is one ambient basis vector
    for rows, cols, blocks in groups:
        inv[:, rows] = (np.swapaxes(read(cols), 1, 2) @ np.swapaxes(blocks, 1, 2)).swapaxes(0, 1)
    return EigenChart(rep=rep, mu=mu[order], eigvecs_inv=inv)


def chart_coords(chart: EigenChart, lines: np.ndarray) -> np.ndarray:
    """Chart coordinates of a line, given in module coordinates, ``(dim,)`` to
    ``(dim - 1,)``, or of each row of a stack, ``(m, dim)`` to ``(m, dim - 1)``;
    raises ChartOverflowError if a line lies at the equator.

    Each row is bit for bit the point of its line alone: the components come
    from one stacked matmul, which runs the same dot per row as the matvec.
    Lines orthogonal to the top eigenvector have no finite coordinates; the
    totally nonnegative region never meets that hyperplane, so hitting the
    error on a nominally nonnegative input signals numerical trouble.  A zero
    row raises ``ValueError``.
    """
    a = np.matmul(chart.eigvecs_inv, np.asarray(lines, dtype=np.float64)[..., None])[..., 0]
    # the equator test on each row over its largest |component|, whose squares
    # neither overflow nor underflow
    largest = np.abs(a).max(axis=-1, keepdims=True)
    if (largest == 0.0).any():
        raise ValueError("zero vector does not span a line")
    r = a / largest
    if (np.abs(r[..., 0]) <= 1e-13 * np.sqrt((r * r).sum(axis=-1))).any():
        raise ChartOverflowError("line lies on the chart's hyperplane at infinity")
    return a[..., 1:] / a[..., :1]
