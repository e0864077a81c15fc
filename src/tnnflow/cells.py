"""The cell decomposition of the nonnegative complete SL(3) flag variety.

In the six-coordinate chart (v, w) the nonnegative part is cut out by

    v1 + v2 + v3 = 1,   w1 + w2 + w3 = 1,   v1 w1 - v2 w2 + v3 w3 = 0,

with all coordinates >= 0.  Its boundary strata are indexed by which
coordinates vanish: a *pattern* is a pair of subsets of {1,2,3}, and a
pattern is a cell exactly when the constraints admit a strictly positive
solution on the complementary supports V and W, which the sign rule decides
from V & W alone.  Everything here is in closed form and exact: each cell's
witness fills its supports uniformly (one w is fixed on the top cell), its
dimension comes from the supports, and each covering pair is shown a limit
along the bilinear path from the face's witness toward the coface's, carried
on ints.  The census (19 cells, f-vector (6, 8, 4, 1)) is cross-checkable
against an independent Bruhat-interval count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chevalley import FLOAT, RATIONAL
from .flow import fixed_flag
from .serialize import frac
from .totpos import Membership, Sl3Coords, sl3_coords, sl3_membership

__all__ = [
    "Cell",
    "Census",
    "enumerate_cells",
    "label_of",
    "bruhat_interval_counts",
    "FacePoset",
    "face_poset",
    "validate_poset",
    "census_verdict",
    "limit_report",
    "census_payload",
    "figure_svg",
]

_INDICES = (1, 2, 3)


# ---------------------------------------------------------------------------
# witnesses


def _zeros(vec, tol=0) -> frozenset:
    """The indices 1..3 of the entries of ``vec`` within ``tol`` of zero."""
    return frozenset(i for i, x in zip(_INDICES, vec) if abs(x) <= tol)


# the top cell's w: against v = (1/3, 1/3, 1/3) the pairing is (w1 - w2 + w3) / 3,
# which vanishes with the sum w1 + w2 + w3 = 1 iff w2 = 1/2
_TOP_W = (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))


def _uniform_witness(vzeros, wzeros) -> Sl3Coords:
    """The pattern's point with v = 1/|V| on its support V and w = 1/|W| on W.

    The pairing v1 w1 - v2 w2 + v3 w3 is then the sum of (+, -, +) over V & W
    divided by |V| |W|, which vanishes on every pattern of :func:`_sign_rule`
    but the top one, V = W = {1, 2, 3}; there w is ``_TOP_W``.
    """
    v, w = (tuple(Fraction(int(i not in zeros), 3 - len(zeros)) for i in _INDICES) for zeros in (vzeros, wzeros))
    return Sl3Coords(v, _TOP_W if not vzeros and not wzeros else w, RATIONAL)


def _scaled(coords: Sl3Coords) -> tuple:
    """An exact point as ``(d, v, w)``: its common denominator d, and d v and d w as ints."""
    d = math.lcm(*(x.denominator for x in coords.v + coords.w))
    v, w = ([x.numerator * (d // x.denominator) for x in vec] for vec in (coords.v, coords.w))
    return d, v, w


def _pairing(v, w):
    return v[0] * w[0] - v[1] * w[1] + v[2] * w[2]


def _on_cell(v, w, pattern) -> bool:
    """Whether int vectors v and w, each up to a positive scale, are a point of the
    variety whose vanishing pattern is ``pattern``, a pair (vzeros, wzeros)."""
    return min(v + w) >= 0 and _pairing(v, w) == 0 and (_zeros(v), _zeros(w)) == pattern


def _pattern_dim(coords: Sl3Coords) -> int:
    """Cell dimension at a point, from its supports V and W alone.

    The free coordinates are the |V| + |W| nonzero ones, and the two sums are
    independent constraints on them.  The gradient of v1 w1 - v2 w2 + v3 w3
    on the free coordinates is nonzero iff V & W is nonempty, and on a pattern
    of :func:`_sign_rule` it is then independent of the sums' gradients.  So
    the dimension is |V| + |W| - 2 - [V & W nonempty]; the tests hold the
    exact Jacobian rank count as its oracle.
    """
    vsupp = {i for i, x in enumerate(coords.v) if x != 0}
    wsupp = {i for i, x in enumerate(coords.w) if x != 0}
    return len(vsupp) + len(wsupp) - 2 - bool(vsupp & wsupp)


# ---------------------------------------------------------------------------
# cells and census


@dataclass(frozen=True)
class Cell:
    vzeros: frozenset
    wzeros: frozenset
    dim: int
    witness: Sl3Coords

    @property
    def key(self) -> str:
        vz = "".join(str(i) for i in sorted(self.vzeros))
        wz = "".join(str(i) for i in sorted(self.wzeros))
        return f"v{vz}|w{wz}"

    @property
    def zeros(self) -> frozenset:
        return frozenset(f"v{i}" for i in self.vzeros) | frozenset(
            f"w{i}" for i in self.wzeros
        )

    @property
    def vertex_label(self) -> str | None:
        """Figure-style label 'ab,cd' naming the vanishing pairs (0-cells only)."""
        if self.dim != 0:
            return None
        return "{},{}".format(
            "".join(str(i) for i in sorted(self.vzeros)),
            "".join(str(i) for i in sorted(self.wzeros)),
        )


@dataclass(frozen=True)
class Census:
    cells: tuple

    @property
    def f_vector(self) -> tuple:
        top = max(c.dim for c in self.cells)
        return tuple(sum(1 for c in self.cells if c.dim == d) for d in range(top + 1))

    def euler(self, max_dim: int | None = None) -> int:
        return sum(
            (-1) ** c.dim for c in self.cells if max_dim is None or c.dim <= max_dim
        )

    def by_pattern(self, vzeros, wzeros) -> Cell | None:
        vz, wz = frozenset(vzeros), frozenset(wzeros)
        return next(
            (c for c in self.cells if c.vzeros == vz and c.wzeros == wz), None
        )

    def vertex_labels(self) -> frozenset:
        return frozenset(c.vertex_label for c in self.cells if c.dim == 0)


def _sign_rule(vzeros, wzeros) -> bool:
    """Whether the pattern has a point with both supports nonempty and strictly positive there.

    On the supports V and W, the sums are met by scaling, and
    v1 w1 - v2 w2 + v3 w3 = 0 sums the positive products v_i w_i over V & W
    with the signs (+, -, +): it can vanish iff V & W is empty or holds both
    signs.
    """
    vsupp = {i for i in _INDICES if i not in vzeros}
    wsupp = {i for i in _INDICES if i not in wzeros}
    common = vsupp & wsupp
    return bool(vsupp and wsupp) and (not common or (2 in common and len(common) > 1))


def enumerate_cells() -> Census:
    """Decide realizability of all 49 vanishing patterns and collect the cells.

    Realizability is decided by the sign rule :func:`_sign_rule` alone; each
    realizable pattern's witness is :func:`_uniform_witness`, checked exactly
    to lie on the variety with that pattern and no other (``AssertionError``
    otherwise).  Each cell's dimension is the closed-form count
    :func:`_pattern_dim` at its witness.
    """
    cells = []
    subsets = [frozenset(s) for k in range(3) for s in itertools.combinations(_INDICES, k)]
    for vz, wz in itertools.product(subsets, repeat=2):
        if not _sign_rule(vz, wz):
            continue
        witness = _uniform_witness(vz, wz)
        d, v, w = _scaled(witness)
        if not (sum(v) == sum(w) == d and _on_cell(v, w, (vz, wz))):
            raise AssertionError(f"the witness of v{sorted(vz)}|w{sorted(wz)} is not a point of its pattern")
        cells.append(Cell(vz, wz, _pattern_dim(witness), witness))
    cells.sort(key=lambda c: (c.dim, c.key))
    return Census(tuple(cells))


def label_of(coords: Sl3Coords, census: Census, tol: float = 1e-9) -> Cell:
    """The cell of ``census`` whose vanishing pattern matches the given chart point.

    Exact input is labeled exactly; float input treats coordinates within
    ``tol`` of zero as vanishing.  Points outside the nonnegative variety,
    or exhibiting a pattern that is not a cell, are rejected.
    """
    if sl3_membership(coords, tol=tol) is Membership.OUTSIDE:
        raise ValueError("point is outside the nonnegative variety")
    tol = tol if coords.field == FLOAT else 0
    vz, wz = _zeros(coords.v, tol), _zeros(coords.w, tol)
    cell = census.by_pattern(vz, wz)
    if cell is None:
        raise ValueError(f"vanishing pattern v:{sorted(vz)} w:{sorted(wz)} is not a cell")
    return cell


# ---------------------------------------------------------------------------
# the independent oracle: Bruhat intervals


def _bruhat_leq(u, w) -> bool:
    """Dominance criterion: u <= w iff every sorted prefix of u is entrywise <=."""
    k = len(u)
    for i in range(1, k):
        a = sorted(u[:i])
        b = sorted(w[:i])
        if any(x > y for x, y in zip(a, b)):
            return False
    return True


def _inversions(p) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])


def bruhat_interval_counts(n: int = 3) -> tuple:
    """Number of Bruhat-comparable pairs (u, w), u <= w, by length difference.

    The cells of the nonnegative complete flag variety of SL(n) are indexed
    by such pairs with dimension l(w) - l(u), so this count is an oracle for
    the f-vector obtained geometrically.
    """
    perms = list(itertools.permutations(range(1, n + 1)))
    max_len = n * (n - 1) // 2
    counts = [0] * (max_len + 1)
    for u, w in itertools.product(perms, repeat=2):
        du, dw = _inversions(u), _inversions(w)
        if du <= dw and _bruhat_leq(u, w):
            counts[dw - du] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# face poset


@dataclass(frozen=True, eq=False)
class FacePoset:
    """Closure order on cells: A <= B iff A vanishes everywhere B does."""

    census: Census
    leq: np.ndarray  # leq[a, b] == True iff cell a lies in the closure of b
    covers: tuple

    def faces_of(self, b: int, dim: int | None = None) -> list:
        cells = self.census.cells
        return [
            a
            for a in range(len(cells))
            if a != b and self.leq[a, b] and (dim is None or cells[a].dim == dim)
        ]

    def cofaces_of(self, a: int, dim: int | None = None) -> list:
        cells = self.census.cells
        return [
            b
            for b in range(len(cells))
            if b != a and self.leq[a, b] and (dim is None or cells[b].dim == dim)
        ]

    def edge_between(self, label1: str, label2: str) -> int:
        """Index of the 1-cell whose vertex set is the given pair of 0-cells."""
        cells = self.census.cells
        want = {label1, label2}
        for e in range(len(cells)):
            if cells[e].dim != 1:
                continue
            got = {cells[v].vertex_label for v in self.faces_of(e, dim=0)}
            if got == want:
                return e
        raise KeyError(f"no edge joins {label1} and {label2}")


def face_poset(census: Census) -> FacePoset:
    zeros = [cell.zeros for cell in census.cells]
    dims = [cell.dim for cell in census.cells]
    m = len(zeros)
    leq = np.array([[za >= zb for zb in zeros] for za in zeros], dtype=bool).reshape(m, m)
    covers = tuple(
        (a, b)
        for a, b in itertools.product(range(m), repeat=2)
        if dims[b] == dims[a] + 1 and zeros[a] >= zeros[b]
    )
    return FacePoset(census, leq, covers)


def validate_poset(poset: FacePoset) -> dict:
    """Structural checks that the closure order is the face poset of a 3-ball."""
    cells = poset.census.cells
    checks = {}
    checks["graded"] = all(
        any(
            poset.leq[a, c] and poset.leq[c, b] and cells[c].dim == cells[a].dim + 1
            for c in range(len(cells))
        )
        for a, b in itertools.product(range(len(cells)), repeat=2)
        if poset.leq[a, b] and cells[b].dim - cells[a].dim >= 2
    )
    checks["edges_have_two_vertices"] = all(
        len(poset.faces_of(e, dim=0)) == 2
        for e, c in enumerate(cells)
        if c.dim == 1
    )
    checks["edges_between_two_faces"] = all(
        len(poset.cofaces_of(e, dim=2)) == 2
        for e, c in enumerate(cells)
        if c.dim == 1
    )
    quad_ok = True
    for f, c in enumerate(cells):
        if c.dim != 2:
            continue
        edges = poset.faces_of(f, dim=1)
        verts = poset.faces_of(f, dim=0)
        if len(edges) != 4 or len(verts) != 4:
            quad_ok = False
            continue
        # each vertex of the quad lies on exactly two of its edges
        for v in verts:
            incident = [e for e in edges if poset.leq[v, e]]
            if len(incident) != 2:
                quad_ok = False
    checks["two_cells_are_quads"] = quad_ok
    top = [i for i, c in enumerate(cells) if c.dim == 3]
    checks["unique_top_cell"] = len(top) == 1 and all(
        poset.leq[a, top[0]] for a in range(len(cells))
    )
    checks["euler_boundary_sphere"] = poset.census.euler(max_dim=2) == 2
    checks["euler_ball"] = poset.census.euler() == 1
    return checks


def census_verdict(census: Census, poset_checks: dict, bruhat_counts) -> dict:
    """The census gate shared by the ``cells`` and ``verify`` commands.

    The f-vector must match ``bruhat_counts`` (:func:`bruhat_interval_counts`,
    taken once by the caller), the 0-cells must carry the six vertex labels of
    the figure, and every check of :func:`validate_poset` must hold (a 2-sphere
    boundary among them).  The census passes when every entry is true.
    """
    return {
        "bruhat_match": list(census.f_vector) == list(bruhat_counts),
        "vertex_labels_match": census.vertex_labels() == frozenset(_VERTEX_POS),
        "poset_valid": all(poset_checks.values()),
    }


# ---------------------------------------------------------------------------
# limits toward smaller cells


def _limit_path(face: Sl3Coords, coface: Sl3Coords) -> list | None:
    """Points (v_a + eps v_b, w_a + eps r w_b) at eps = 1/10, 1/100 and 1/1000, from
    the face's witness (v_a, w_a) toward the coface's (v_b, w_b), as int vectors up
    to scale; None where no r > 0 puts them on the variety.

    Both witnesses lie on the variety, so by bilinearity the pairing along the
    path is eps (r <v_a, w_b> + <v_b, w_a>): some r > 0 zeroes it iff the two
    pairings have opposite signs, and r = 1 does when both vanish.  Scaling each
    witness to ints by its common denominator leaves r as it is.
    """
    da, va, wa = _scaled(face)
    db, vb, wb = _scaled(coface)
    p, q = _pairing(va, wb), _pairing(vb, wa)
    if p == q == 0:
        num, den = 1, 1
    elif p * q < 0:
        num, den = abs(q), abs(p)  # r = -q / p
    else:
        return None
    # each vector times 10^k da db, and w times den too
    return [
        ([10**k * db * x + da * y for x, y in zip(va, vb)], [10**k * db * den * x + da * num * y for x, y in zip(wa, wb)])
        for k in (1, 2, 3)
    ]


def limit_report(census: Census, poset: FacePoset) -> dict:
    """Check every covering pair: the small cell is a limit of the big one.

    Each point of :func:`_limit_path` must lie exactly on the variety with the
    big cell's pattern, and its distance to the small cell's witness must fall
    with eps and end below 0.02.
    """
    cells = census.cells
    worst_final = 0.0
    failures = []
    for a, b in poset.covers:
        face, coface = cells[a], cells[b]
        path = _limit_path(face.witness, coface.witness)
        if path is None or not all(_on_cell(v, w, (coface.vzeros, coface.wzeros)) for v, w in path):
            failures.append((face.key, coface.key))
            continue
        target = [float(x) for x in face.witness.as_vector()]
        distances = []
        for v, w in path:
            point = [x / sum(v) for x in v] + [x / sum(w) for x in w]
            distances.append(max(abs(x - y) for x, y in zip(point, target)))
        worst_final = max(worst_final, distances[-1])
        if not (all(d2 < d1 for d1, d2 in zip(distances, distances[1:])) and distances[-1] < 0.02):
            failures.append((face.key, coface.key))
    return {
        "covering_pairs": len(poset.covers),
        "worst_final_distance": worst_final,
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# export


def census_payload(census: Census, poset: FacePoset, tol: float = 1e-9) -> dict:
    """JSON-ready description: cells, relations, fixed point, counts, meta.

    Each cell records its vanishing pattern, dimension, and exact witness
    coordinates; ``relations`` lists the covering pairs (face key, coface
    key); ``fixed_point`` gives the attractor of the contraction in decimals
    together with the cell containing it.
    """
    cells_out = []
    for c in census.cells:
        entry = {
            "key": c.key,
            "zeros": {"v": sorted(c.vzeros), "w": sorted(c.wzeros)},
            "dim": c.dim,
            "witness_v": [frac(x) for x in c.witness.v],
            "witness_w": [frac(x) for x in c.witness.w],
        }
        if c.dim == 0:
            entry["vertex_label"] = c.vertex_label
        cells_out.append(entry)
    fixed = sl3_coords(fixed_flag(3))
    cells_list = census.cells
    return {
        "n": 3,
        "cell_count": len(census.cells),
        "f_vector": list(census.f_vector),
        "euler_boundary": census.euler(max_dim=2),
        "euler_ball": census.euler(),
        "bruhat_counts": list(bruhat_interval_counts(3)),
        "cells": cells_out,
        "relations": sorted(
            [cells_list[a].key, cells_list[b].key] for a, b in poset.covers
        ),
        "fixed_point": {
            "v": [float(x) for x in fixed.v],
            "w": [float(x) for x in fixed.w],
            "cell": label_of(fixed, census, tol=tol).key,
        },
        "meta": {"tol": tol},
    }


# Projection geometry for the schematic figure: the 2-sphere boundary drawn
# inside its silhouette circle of radius 3.  Vertices lie on the "equator"
# ellipse (3, 1); the two arcs that cross the silhouette run along the
# ellipses (1, 3) and (3/5, 3) and are split at the poles F = (0, 3),
# H = (0, -3) into a hidden (dashed) and a visible (solid) half.
_VERTEX_POS = {
    "12,23": (3.0, 0.0),  # E
    "12,13": (3.0 / math.sqrt(10.0), 3.0 / math.sqrt(10.0)),  # A
    "23,13": (-3.0 / math.sqrt(28.0), math.sqrt(27.0 / 28.0)),  # C
    "23,12": (-3.0, 0.0),  # G
    "13,12": (-3.0 / math.sqrt(10.0), -3.0 / math.sqrt(10.0)),  # B
    "13,23": (3.0 / math.sqrt(28.0), -math.sqrt(27.0 / 28.0)),  # D
}
_RIM_ORDER = ("12,23", "12,13", "23,13", "23,12", "13,12", "13,23")
_FACE_LABELS = {  # 2-cell key -> (text, angle in degrees)
    "v1|w": ("v1 = 0", 45.0),
    "v|w3": ("w3 = 0", -45.0),
    "v3|w": ("v3 = 0", -135.0),
    "v|w1": ("w1 = 0", 135.0),
}


def _arc(p1, p2, rx, ry, dashed, edge_key) -> str:
    d = (
        f"M {p1[0]:.6f} {p1[1]:.6f} "
        f"A {rx} {ry} 0 0 1 {p2[0]:.6f} {p2[1]:.6f}"
    )
    dash = ' stroke-dasharray="0.12 0.12"' if dashed else ""
    return (
        f'<path d="{d}" fill="none" stroke="black" stroke-width="0.05"'
        f'{dash} data-edge="{edge_key}"/>'
    )


def figure_svg(census: Census, poset: FacePoset) -> str:
    """Schematic SVG of the boundary 2-sphere: 6 vertices, 8 arcs, 4 labels.

    Every arc carries a ``data-edge`` attribute naming the 1-cell it draws,
    and the arc endpoints are looked up through the face poset, so the figure
    cannot silently disagree with the census.
    """
    cells = census.cells

    def edge_key(l1, l2):
        return cells[poset.edge_between(l1, l2)].key

    paths = []
    # rim arcs along the equator ellipse (hidden half on top)
    for k, l1 in enumerate(_RIM_ORDER):
        l2 = _RIM_ORDER[(k + 1) % 6]
        p1, p2 = _VERTEX_POS[l1], _VERTEX_POS[l2]
        hidden = (p1[1] + p2[1]) / 2 > 0
        paths.append(_arc(p1, p2, 3, 1, hidden, edge_key(l1, l2)))
    # the two arcs crossing the silhouette, split at the poles
    a, b = _VERTEX_POS["12,13"], _VERTEX_POS["13,12"]
    key_ab = edge_key("12,13", "13,12")
    paths.append(_arc(a, (0.0, 3.0), 1, 3, True, key_ab))
    paths.append(_arc((0.0, 3.0), b, 1, 3, False, key_ab))
    c, d = _VERTEX_POS["23,13"], _VERTEX_POS["13,23"]
    key_cd = edge_key("23,13", "13,23")
    paths.append(_arc(c, (0.0, -3.0), 0.6, 3, True, key_cd))
    paths.append(_arc((0.0, -3.0), d, 0.6, 3, False, key_cd))

    dots = []
    texts = []
    for label, (x, y) in _VERTEX_POS.items():
        dots.append(f'<circle cx="{x:.6f}" cy="{y:.6f}" r="0.07" data-vertex="{label}"/>')
        dx = 0.42 if x >= 0 else -0.42
        dy = 0.22 if y >= 0 else -0.22
        if abs(x) == 3.0:
            dy = 0.0
        texts.append(
            f'<text x="{x + dx:.4f}" y="{-(y + dy):.4f}" font-size="0.3" '
            f'text-anchor="middle" dominant-baseline="middle">{label}</text>'
        )
    for key, (text, angle) in _FACE_LABELS.items():
        if not any(cl.key == key and cl.dim == 2 for cl in cells):
            raise KeyError(f"face label {key} does not name a 2-cell")
        rad = math.radians(angle)
        x, y = 3.55 * math.cos(rad), 3.55 * math.sin(rad)
        texts.append(
            f'<text x="{x:.4f}" y="{-y:.4f}" font-size="0.3" text-anchor="middle" '
            f'dominant-baseline="middle" data-face="{key}">{text}</text>'
        )

    body = "\n".join(
        [
            '<circle cx="0" cy="0" r="3" fill="none" stroke="black" '
            'stroke-width="0.05" class="silhouette"/>',
            *paths,
            *dots,
        ]
    )
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-4.3 -4.3 8.6 8.6">\n'
        '<g transform="scale(1,-1)">\n' + body + "\n</g>\n" + "\n".join(texts) + "\n</svg>\n"
    )
