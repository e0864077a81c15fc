"""Highest-weight representations of sl(n) and the projective eigenchart.

A partial flag variety with recorded dimensions ``{1..n-1} - J`` embeds in
the projectivization of the irreducible module whose highest weight is the
sum of the fundamental weights over the recorded dimensions.  The module is
realized concretely: fundamental modules are wedge powers of the defining
representation; a general one is carved out of the tensor product of its
fundamental factors as the lowering closure of the highest vector, with an
exact reduced-echelon basis so that coordinates can be read off pivot
positions without solving anything.

Each generator E_i, F_i moves one factor's basis index at a time with
structure constant +1, so it is stored as an index map on the tensor product
and applied to sparse ``{flat index: Fraction}`` vectors.  Every vector of
the closure is a weight vector, so each echelon step touches one weight
space only.  The basis rows stay sparse: they are the module's only exact
form, and the chart reads them in float64 one weight space at a time.  The
image of a flag is the tensor product of the leading compound columns of a
representing matrix; its module coordinates are read off at the pivots, one
leading minor per factor.

The symmetric operator ``sum_i E_i + F_i`` acting on the module has a simple
top eigenvalue and a closed-form orthonormal eigenbasis: the orthogonal
eigenbasis P of its defining matrix, acting on orthonormal bases of the
weight spaces.  The affine chart of projective space centered at the top
eigenline, expressed in that eigenbasis, is the coordinate system in which
the induced dynamics become diagonal (see :mod:`tnnflow.flow`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .chevalley import FLOAT, RATIONAL, GroupElement, build_pinning, generator_sum_spectrum
from .totpos import FactorizationParams, sample_positive

__all__ = [
    "Weight",
    "lambda_for",
    "weyl_dim",
    "RepModule",
    "build_rep",
    "LineCoords",
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
    result = Fraction(1)
    for i in range(1, n):
        for j in range(i, n):
            result *= Fraction(sum(c[i - 1 : j]) + (j - i + 1), j - i + 1)
    assert result.denominator == 1
    return int(result)


# ---------------------------------------------------------------------------
# module construction


def _subset_label(s) -> str:
    return "".join(str(a) for a in s)


def _wedge_maps(n: int, k: int):
    """E_i and F_i on the k-th wedge power of the defining module.

    Basis vectors are indexed by sorted k-subsets in lexicographic order.
    E_i replaces i+1 by i and F_i replaces i by i+1; neither reorders a
    sorted subset, so each is a partial map ``subset index -> subset index``
    with every structure constant +1.
    """
    subsets = list(itertools.combinations(range(1, n + 1), k))
    index = {s: a for a, s in enumerate(subsets)}

    def move(old, new):
        return {
            a: index[tuple(sorted(set(s) - {old} | {new}))]
            for a, s in enumerate(subsets)
            if old in s and new not in s
        }

    e_maps = {i: move(i + 1, i) for i in range(1, n)}
    f_maps = {i: move(i, i + 1) for i in range(1, n)}
    return subsets, e_maps, f_maps


def _tensor_moves(n: int, factors):
    """E_i and F_i on the tensor product of wedge factors, as index moves.

    Ambient basis vectors are tuples of factor subsets, flattened in
    row-major order (the first factor varies slowest).  ``e[i][a]`` lists the
    flat indices that E_i sends basis vector ``a`` to, one per factor it acts
    on; every coefficient is +1.  Also returns each basis vector's label and
    its weight, the eigenvalues of H_1 .. H_{n-1}.
    """
    subsets, e_maps, f_maps = zip(*(_wedge_maps(n, k) for k in factors))
    dims = [len(subs) for subs in subsets]
    strides = [int(np.prod(dims[j + 1 :])) for j in range(len(dims))]
    combos = list(itertools.product(*(range(d) for d in dims)))

    def moves(factor_maps, i):
        maps = [fm[i] for fm in factor_maps]
        return tuple(
            tuple(a + (m[d] - d) * s for d, m, s in zip(digits, maps, strides) if d in m)
            for a, digits in enumerate(combos)
        )

    e = {i: moves(e_maps, i) for i in range(1, n)}
    f = {i: moves(f_maps, i) for i in range(1, n)}
    labels, weights = [], []
    for digits in combos:
        sets = [subs[d] for subs, d in zip(subsets, digits)]
        labels.append("*".join(_subset_label(s) for s in sets))
        weights.append(
            tuple(sum((i in s) - (i + 1 in s) for s in sets) for i in range(1, n))
        )
    return e, f, labels, weights


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

    ``rows`` are the reduced-echelon basis vectors of the module inside the
    tensor product of its fundamental factors, as sparse maps
    ``{flat ambient index: Fraction}`` in the order of their pivots
    ``pivot_cols``; the first pivot is flat index 0, the highest vector.
    Module coordinates of an ambient vector known to lie in the module are
    simply its entries at ``pivot_cols``.  ``ambient_e`` and ``ambient_f``
    give E_i and F_i on the ambient space as index moves (see
    ``_tensor_moves``).
    """

    n: int
    weight: Weight
    factors: tuple
    dim: int
    ambient_dim: int
    labels: tuple
    rows: tuple
    pivot_cols: tuple
    ambient_e: dict
    ambient_f: dict

    def float_basis(self) -> np.ndarray:
        """The basis rows as a dense (dim x ambient) float64 matrix."""
        out = np.zeros((self.dim, self.ambient_dim))
        for r, row in enumerate(self.rows):
            out[r, list(row)] = [float(x) for x in row.values()]
        return out


def build_rep(weight: Weight) -> RepModule:
    """Construct the irreducible module by lowering closure (exact).

    Inside the tensor product of fundamental factors, apply the lowering
    operators to the highest vector, one depth at a time: the weight space
    V_mu is spanned by the F_i-images of the weight spaces V_{mu + alpha_i}
    one level up, and :func:`linalg.reduce_rows` gives each its own
    reduced-echelon basis.  Vectors are sparse maps ``flat index ->
    Fraction``.  An exact residual check then confirms that every E_i and
    F_i maps the span into itself: the image of a basis row must equal the
    combination of basis rows read off at its pivots.
    """
    n = weight.n
    factors = tuple(
        k for k in range(1, n) for _ in range(weight.coeffs[k - 1])
    )
    if not factors:
        raise ValueError("the zero weight has no projective geometry attached")
    e_moves, f_moves, ambient_labels, weights = _tensor_moves(n, factors)

    # the top subset of each factor is lexicographically first
    rows = {0: {0: Fraction(1)}}  # pivot column -> sparse basis vector
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
            for pivot, vec in linalg.reduce_rows(vectors):
                rows[pivot] = vec
                level.append(vec)

    for moves in (*e_moves.values(), *f_moves.values()):
        for row in rows.values():
            image = _apply(moves, row)
            residual = dict(image)
            for q, x in image.items():
                for a, y in rows.get(q, {}).items():
                    residual[a] = residual.get(a, 0) - x * y
            if any(residual.values()):
                raise AssertionError("closure is not invariant; construction bug")

    pivots = sorted(rows)
    return RepModule(
        n=n,
        weight=weight,
        factors=factors,
        dim=len(pivots),
        ambient_dim=len(ambient_labels),
        labels=tuple(ambient_labels[p] for p in pivots),
        rows=tuple(rows[p] for p in pivots),
        pivot_cols=tuple(pivots),
        ambient_e=e_moves,
        ambient_f=f_moves,
    )


# ---------------------------------------------------------------------------
# the embedding of the flag variety


@dataclass(frozen=True)
class LineCoords:
    """Homogeneous coordinates of a line in a module, in the module basis."""

    vec: np.ndarray
    field: str

    def __post_init__(self):
        self.vec.setflags(write=False)

    def to_float(self) -> "LineCoords":
        if self.field == FLOAT:
            return self
        return LineCoords(linalg.to_float(self.vec), FLOAT)


def line_of(rep: RepModule, g, side: str = "lower") -> LineCoords:
    """Image of the highest-weight line under a group element.

    ``g`` is a :class:`~tnnflow.chevalley.GroupElement` (exact for rational
    entries, floating otherwise) or factorization parameters, which are
    first multiplied out on ``side`` by :func:`~tnnflow.totpos.sample_positive`.
    The highest vector of the k-th wedge factor is e_1 ^ ... ^ e_k, so its
    image is the leading compound column of g, and the line is spanned by the
    tensor product of those columns.  Only the module's pivot coordinates are
    multiplied out: the digits of a pivot's ambient index pick one leading
    minor per factor, and the product runs left to right over the factors.
    Exact g gives Fractions (the integer minors divided by their scaling);
    float g gives binary64 products of ``np.linalg.det`` minors.
    """
    if isinstance(g, FactorizationParams):
        g = sample_positive(g, side)
    if not isinstance(g, GroupElement):
        raise TypeError("g must be FactorizationParams or GroupElement")
    if g.n != rep.n:
        raise ValueError(f"a {g.n} x {g.n} matrix does not act on a module for n = {rep.n}")
    kmax = max(rep.factors)
    if g.field == RATIONAL:
        levels, scale = linalg.leading_minors(g.entries, kmax)
    else:  # levels[k]: one stacked det over the k-row submatrices of the first k columns
        fmat = linalg.to_float(g.entries)
        levels = [[1.0]] + [
            np.linalg.det(fmat[np.array(list(itertools.combinations(range(g.n), k))), :k])
            for k in range(1, kmax + 1)
        ]
    digits = np.unravel_index(rep.pivot_cols, [len(levels[k]) for k in rep.factors])
    vec = [math.prod(levels[k][d] for k, d in zip(rep.factors, ds)) for ds in zip(*digits)]
    if g.field == RATIONAL:
        denom = scale ** sum(rep.factors)
        return LineCoords(np.array([Fraction(x, denom) for x in vec], dtype=object), RATIONAL)
    return LineCoords(np.array(vec), FLOAT)


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
    order with a positive diagonal.  Eigenvalues are sorted descending by a
    stable sort.  The top one, <lambda, d>, is simple: every other weight is
    lambda minus a sum of positive roots e_i - e_j (i < j), and d is strictly
    decreasing.
    """
    n = rep.n
    d, p = generator_sum_spectrum(build_pinning(n))
    dims = [math.comb(n, k) for k in rep.factors]
    # occupancy[r, i]: how often index i lies in the factor subsets of pivot r
    occupancy = sum(
        np.array([[i in s for i in range(n)] for s in itertools.combinations(range(n), k)])[digits]
        for k, digits in zip(rep.factors, np.unravel_index(rep.pivot_cols, dims))
    )
    spaces: dict = {}
    for r, weight in enumerate(map(tuple, occupancy)):
        spaces.setdefault(weight, []).append(r)
    frame = np.zeros((rep.ambient_dim, rep.dim))
    blocks = []
    for rows in spaces.values():
        cols = sorted(set().union(*(rep.rows[r] for r in rows)))
        block = np.array([[float(rep.rows[r].get(c, 0)) for c in cols] for r in rows])
        q, tri = np.linalg.qr(block.T)
        frame[np.ix_(cols, rows)] = q * np.sign(np.diag(tri))
        blocks.append((rows, cols, block))
    for axis, k in enumerate(rep.factors):  # frame <- rho(P) frame, one factor at a time
        shaped = frame.reshape(*dims, rep.dim)
        frame = np.moveaxis(np.tensordot(_compound(p, k), shaped, axes=(1, axis)), 0, axis)
    mu = occupancy @ d
    order = np.argsort(-mu, kind="stable")
    frame = frame.reshape(rep.ambient_dim, rep.dim)[:, order]
    # the components frame^T x of the ambient vector x = sum_r c_r row_r
    inv = np.empty((rep.dim, rep.dim))
    for rows, cols, block in blocks:
        inv[:, rows] = frame[cols].T @ block.T
    return EigenChart(rep=rep, mu=mu[order], eigvecs=frame[list(rep.pivot_cols)], eigvecs_inv=inv)


def chart_coords(chart: EigenChart, line: LineCoords) -> np.ndarray:
    """Chart coordinates of a line; raises ChartOverflowError at the equator.

    Lines orthogonal to the top eigenvector have no finite coordinates; the
    totally nonnegative region never meets that hyperplane, so hitting the
    error on a nominally nonnegative input signals numerical trouble.
    """
    vec = np.asarray(line.to_float().vec, dtype=np.float64)
    a = chart.eigvecs_inv @ vec
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        raise ValueError("zero vector does not span a line")
    if abs(a[0]) <= 1e-13 * scale:
        raise ChartOverflowError("line lies on the chart's hyperplane at infinity")
    return a[1:] / a[0]


def chart_line(chart: EigenChart, p: np.ndarray) -> LineCoords:
    """The line with the given chart coordinates (inverse of chart_coords)."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (chart.ncoords,):
        raise ValueError(f"expected {chart.ncoords} coordinates, got {p.shape}")
    a = np.concatenate([[1.0], p])
    return LineCoords(chart.eigvecs @ a, FLOAT)
