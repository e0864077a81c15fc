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
structure constant +1, so it is stored as an index map on the tensor product
and applied to sparse ``{flat index: int}`` vectors.  Every vector of
the closure is a weight vector, so each echelon step touches one weight
space only.  The basis rows stay sparse primitive int vectors: they are the
module's only exact form, and the chart reads them in float64, one block of
echelon rows per weight space.  The image of a flag is the tensor product of
the leading compound columns of a representing matrix; its module
coordinates are read off at the pivots, one leading minor per factor, and
returned in binary64.

The symmetric operator ``sum_i E_i + F_i`` acting on the module has a simple
top eigenvalue and a closed-form orthonormal eigenbasis: the orthogonal
eigenbasis P of its defining matrix, acting on orthonormal bases of the
weight spaces.  Those bases are orthonormalized in stacked groups: the
weight spaces of one block shape (rows x support columns) share one stacked
QR, and a 1 x 1 space, one row with one ambient entry, is its own unit
basis vector in closed form.  The affine chart of projective space centered
at the top eigenline, expressed in that eigenbasis, is the coordinate system
in which the induced dynamics become diagonal (see :mod:`tnnflow.flow`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .chevalley import RATIONAL, GroupElement, generator_sum_spectrum
from .totpos import FactorizationParams, sample_positive

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
    "chart_line",
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
    """Dimension of the irreducible module, by the Weyl product formula."""
    n, c = weight.n, weight.coeffs
    pairs = [(i, j) for i in range(1, n) for j in range(i, n)]
    dim, rest = divmod(
        math.prod(sum(c[i - 1 : j]) + (j - i + 1) for i, j in pairs),
        math.prod(j - i + 1 for i, j in pairs),
    )
    assert rest == 0
    return dim


# ---------------------------------------------------------------------------
# module construction


def _wedge_maps(n: int, k: int):
    """F_i on the k-th wedge power of the defining module.

    Basis vectors are indexed by sorted k-subsets in lexicographic order.
    F_i replaces i by i+1, which does not reorder a sorted subset, so it is
    a partial map ``subset index -> subset index`` with every structure
    constant +1.
    """
    subsets = list(itertools.combinations(range(1, n + 1), k))
    index = {s: a for a, s in enumerate(subsets)}
    f_maps = {
        i: {
            a: index[tuple(sorted(set(s) - {i} | {i + 1}))]
            for a, s in enumerate(subsets)
            if i in s and i + 1 not in s
        }
        for i in range(1, n)
    }
    return subsets, f_maps


def _tensor_moves(n: int, factors):
    """F_i on the tensor product of wedge factors, as index moves, and the weights.

    Ambient basis vectors are tuples of factor subsets, flattened in
    row-major order (the first factor varies slowest).  ``f[i][a]`` lists the
    flat indices that F_i sends basis vector ``a`` to, one per factor it acts
    on; every coefficient is +1.  ``weights[a]`` holds the eigenvalues of
    H_1 .. H_{n-1} on basis vector ``a``.
    """
    subsets, f_maps = zip(*(_wedge_maps(n, k) for k in factors))
    dims = [len(subs) for subs in subsets]
    strides = [int(np.prod(dims[j + 1 :])) for j in range(len(dims))]
    combos = list(itertools.product(*(range(d) for d in dims)))

    def moves(i):
        maps = [fm[i] for fm in f_maps]
        return tuple(
            tuple(a + (m[d] - d) * s for d, m, s in zip(digits, maps, strides) if d in m)
            for a, digits in enumerate(combos)
        )

    f = {i: moves(i) for i in range(1, n)}
    weights = [
        tuple(sum((i in s) - (i + 1 in s) for s in sets) for i in range(1, n))
        for sets in itertools.product(*subsets)
    ]
    return f, weights


def _apply(moves, vec: dict) -> dict:
    """A generator given by its index moves, applied to a sparse vector."""
    out: dict = {}
    for a, x in vec.items():
        for b in moves[a]:
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
    """

    n: int
    weight: Weight
    factors: tuple
    dim: int
    ambient_dim: int
    rows: tuple
    pivot_cols: tuple

    def float_basis(self) -> np.ndarray:
        """The reduced-echelon basis rows as a dense (dim x ambient) float64 matrix."""
        out = np.zeros((self.dim, self.ambient_dim))
        for r, (row, p) in enumerate(zip(self.rows, self.pivot_cols)):
            out[r, list(row)] = [x / row[p] for x in row.values()]
        return out


def build_rep(weight: Weight) -> RepModule:
    """Construct the irreducible module by lowering closure (exact).

    Inside the tensor product of fundamental factors, apply the lowering
    operators to the highest vector, one depth at a time: the weight space
    V_mu is spanned by the F_i-images of the weight spaces V_{mu + alpha_i}
    one level up, and the integer echelon pass behind
    :func:`linalg.reduce_rows` gives each its own reduced-echelon basis.
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
    f_moves, weights = _tensor_moves(n, factors)

    # the top subset of each factor is lexicographically first
    rows = {0: {0: 1}}  # pivot column -> primitive int basis vector
    level = [rows[0]]
    while level:
        spanning: dict = {}
        for vec in level:
            for i in range(1, n):
                lowered = _apply(f_moves[i], vec)
                if lowered:
                    spanning.setdefault(weights[next(iter(lowered))], []).append(lowered)
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
    return RepModule(
        n=n,
        weight=weight,
        factors=factors,
        dim=len(pivots),
        ambient_dim=len(weights),
        rows=tuple(rows[p] for p in pivots),
        pivot_cols=tuple(pivots),
    )


# ---------------------------------------------------------------------------
# the embedding of the flag variety


def line_of(rep: RepModule, g, side: str = "lower") -> np.ndarray:
    """Image of the highest-weight line under a group element, in binary64.

    ``g`` is a :class:`~tnnflow.chevalley.GroupElement` (exact for rational
    entries, floating otherwise) or factorization parameters, which are
    first multiplied out on ``side`` by :func:`~tnnflow.totpos.sample_positive`.
    The highest vector of the k-th wedge factor is e_1 ^ ... ^ e_k, so its
    image is the leading compound column of g, and the line is spanned by the
    tensor product of those columns.  Only the module's pivot coordinates are
    multiplied out: the digits of a pivot's ambient index pick one leading
    minor per factor, and the product runs left to right over the factors.
    The result holds homogeneous coordinates in the reduced-echelon basis.
    For exact g each is the correctly rounded value of the exact coordinate:
    the product of int minors of the column-scaled g over the product of
    their denominators, one per wedge factor, divided once as Python ints.
    For float g each is a binary64 product of ``np.linalg.det`` minors.
    """
    if isinstance(g, FactorizationParams):
        g = sample_positive(g, side)
    if not isinstance(g, GroupElement):
        raise TypeError("g must be FactorizationParams or GroupElement")
    if g.n != rep.n:
        raise ValueError(f"a {g.n} x {g.n} matrix does not act on a module for n = {rep.n}")
    kmax = max(rep.factors)
    if g.field == RATIONAL:
        levels, dens = linalg.leading_minors(g.entries, kmax)
    else:  # levels[k]: one stacked det over the k-row submatrices of the first k columns
        fmat = linalg.to_float(g.entries)
        levels = [[1.0]] + [
            np.linalg.det(fmat[np.array(list(itertools.combinations(range(g.n), k))), :k])
            for k in range(1, kmax + 1)
        ]
    digits = np.unravel_index(rep.pivot_cols, [len(levels[k]) for k in rep.factors])
    vec = [math.prod(levels[k][d] for k, d in zip(rep.factors, ds)) for ds in zip(*digits)]
    if g.field == RATIONAL:
        denom = math.prod(dens[k] for k in rep.factors)
        vec = [x / denom for x in vec]
    return np.array(vec, dtype=np.float64)


# ---------------------------------------------------------------------------
# eigenchart


@dataclass(frozen=True, eq=False)
class EigenChart:
    """Affine chart of P(V) centered at the top eigenline of the generator sum.

    ``eigvecs`` holds orthonormal eigenvectors (columns, eigenvalues ``mu``
    descending) in module coordinates, their entries at the pivots;
    ``eigvecs_inv`` maps module coordinates to eigenbasis components.  Chart
    coordinates of a line are ratios a_k / a_0 of its eigenbasis components,
    k = 1..dim-1.
    """

    rep: RepModule
    mu: np.ndarray
    eigvecs: np.ndarray
    eigvecs_inv: np.ndarray

    @property
    def ncoords(self) -> int:
        return self.rep.dim - 1

    @property
    def gap(self) -> float:
        return float(self.mu[0] - self.mu[1])


def _compound(p: np.ndarray, k: int) -> np.ndarray:
    """The k-th compound of p: its k x k minors on lexicographic k-subsets."""
    s = np.array(list(itertools.combinations(range(p.shape[0]), k)))
    return np.linalg.det(p[s[:, None, :, None], s[None, :, None, :]])


def eigenchart(rep: RepModule) -> EigenChart:
    """Diagonalize the generator sum on the module, in closed form, and center a chart on top.

    On C^n the generator sum is ``P diag(d) P^T`` (:func:`generator_sum_spectrum`).
    On the ambient tensor product of wedge powers it is therefore
    ``rho(P) D rho(P)^T``: rho(P) is the tensor product of the compounds of the
    orthogonal P, one per wedge factor, and D multiplies each weight space by
    <mu, d>.  The weight spaces of the module are orthogonal in the ambient
    basis, so an orthonormal basis of each, mapped by rho(P), is an orthonormal
    eigenbasis; each weight space's echelon rows are orthonormalized in pivot
    order with a positive diagonal.  The spaces are grouped by block shape
    (rows x support columns) and each group takes one stacked QR; a 1 x 1
    space, one row with one ambient entry, has q = 1 and takes none, and its
    column of ``eigvecs_inv`` is its frame row.  Each group is scattered into
    the frame and its columns of ``eigvecs_inv`` are assembled in one step;
    every entry keeps the bits of the same steps taken one space at a time
    (the tests hold that route as the oracle).  Eigenvalues are sorted
    descending by a stable sort.
    The top one, <lambda, d>, is simple: every other weight is lambda minus a
    sum of positive roots e_i - e_j (i < j), and d is strictly decreasing.
    """
    n = rep.n
    d, p = generator_sum_spectrum(n)
    dims = [math.comb(n, k) for k in rep.factors]
    # occupancy[r, i]: how often index i lies in the factor subsets of pivot r
    occupancy = sum(
        np.array([[i in s for i in range(n)] for s in itertools.combinations(range(n), k)])[digits]
        for k, digits in zip(rep.factors, np.unravel_index(rep.pivot_cols, dims))
    )
    spaces: dict = {}
    for r, weight in enumerate(map(tuple, occupancy)):
        spaces.setdefault(weight, []).append(r)
    # a 1 x 1 space (one row, one ambient entry; the top space is one) has q = 1
    units, shapes = [], {}
    for rows in spaces.values():
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
    for axis, k in enumerate(rep.factors):  # frame <- rho(P) frame, one factor at a time
        shaped = frame.reshape(*dims, rep.dim)
        frame = np.moveaxis(np.tensordot(_compound(p, k), shaped, axes=(1, axis)), 0, axis)
    mu = occupancy @ d
    order = np.argsort(-mu, kind="stable")
    frame = frame.reshape(rep.ambient_dim, rep.dim)[:, order]
    # the components frame^T x of the ambient vector x = sum_r c_r row_r
    inv = np.empty((rep.dim, rep.dim))
    inv[:, unit_rows] = frame[unit_cols].T  # a unit row is one ambient basis vector
    for rows, cols, blocks in groups:
        inv[:, rows] = (np.swapaxes(frame[cols], 1, 2) @ np.swapaxes(blocks, 1, 2)).swapaxes(0, 1)
    return EigenChart(rep=rep, mu=mu[order], eigvecs=frame[list(rep.pivot_cols)], eigvecs_inv=inv)


def chart_coords(chart: EigenChart, line: np.ndarray) -> np.ndarray:
    """Chart coordinates of a line, given in module coordinates; raises
    ChartOverflowError at the equator.

    Lines orthogonal to the top eigenvector have no finite coordinates; the
    totally nonnegative region never meets that hyperplane, so hitting the
    error on a nominally nonnegative input signals numerical trouble.
    """
    a = chart.eigvecs_inv @ np.asarray(line, dtype=np.float64)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        raise ValueError("zero vector does not span a line")
    if abs(a[0]) <= 1e-13 * scale:
        raise ChartOverflowError("line lies on the chart's hyperplane at infinity")
    return a[1:] / a[0]


def chart_line(chart: EigenChart, p: np.ndarray) -> np.ndarray:
    """The line with the given chart coordinates, in module coordinates
    (inverse of chart_coords)."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (chart.ncoords,):
        raise ValueError(f"expected {chart.ncoords} coordinates, got {p.shape}")
    a = np.concatenate([[1.0], p])
    return chart.eigvecs @ a
