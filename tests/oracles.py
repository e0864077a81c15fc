"""Oracles, mostly exact in ``Fraction`` arithmetic, which the package itself no longer needs.

The package carries exact matrices as column-scaled ints only; these helpers
build and transform ``Fraction`` object arrays, and the tests hold them as the
independent routes the int kernels are checked against:

- ``rational_matrix``, ``rational_identity``, ``rational_zeros`` and
  ``rationalize`` build exact matrices;
- ``inv`` is the exact inverse by fraction-free Gauss-Jordan, and
  ``apply_group`` the exact diagram flip sigma(g) = S (g^T)^{-1} S^T built on it;
- ``one_param`` is the dense one-parameter subgroup element x_i(t), y_i(t) or
  the coweight h_i(t);
- ``all_minors`` is the ``Fraction`` view of the minor kernel, and
  ``reduce_rows`` that of the integer echelon pass;
- ``jacobian_pattern_dim`` is the SL(3) cell dimension as free coordinates
  minus an exact Jacobian rank, the oracle of the census's closed form;
- ``exp_generator_sum`` is exp(t tau) in binary64 from the closed-form
  spectrum of tau, the float route the flows and the exact certificate of
  exp(t tau)'s total positivity are checked against;
- ``weyl_dim`` is the Weyl product over all n(n-1)/2 positive roots, the
  route ``embedding.weyl_dim``, which takes only the factors that are not 1,
  is checked against;
- ``frame_gaps`` is the distance between two flags level by level, one
  projection of the leading k columns per k, the route the one-product gaps
  of ``flow._frame_gaps`` are checked against;
- ``fold_gaps`` is the fold gate's gaps taken one time and one side at a
  time, with the control as its own stack of one, the loop whose bits the
  gate's one stack per side must keep;
- ``encode_tree`` is the first pass of the old two-pass report encoder: it
  copies a report into a tree of JSON scalars, and ``json.dumps(...,
  sort_keys=True, indent=2)`` of that copy is the text the one-pass writer
  ``serialize.dumps_canonical`` must produce.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from tnnflow import linalg
from tnnflow.chevalley import FLOAT, GroupElement, Pinning, generator_sum_spectrum
from tnnflow.flow import _frame_gap, _graded_frame
from tnnflow.folding import Folding, _preserves_form, _symmetric_batch, break_symmetry, symmetric_params, symmetric_word
from tnnflow.serialize import encode_value
from tnnflow.totpos import Sl3Coords, _scaled_lower_products


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


def rationalize(a: np.ndarray) -> np.ndarray:
    """Exact Fraction image of a float array (binary64 values are rational)."""
    out = np.empty(a.shape, dtype=object)
    flat_in, flat_out = a.reshape(-1), out.reshape(-1)
    for k, x in enumerate(flat_in):
        flat_out[k] = Fraction(*float(x).as_integer_ratio())
    return out


def _gauss_jordan(m: list) -> int:
    """Bareiss elimination of int rows in place, above and below each pivot.

    Entries stay integer minors, so each division is exact.  Returns the last
    pivot ``d``, or 0 if the leading square block is singular.
    """
    n, prev = len(m), 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
        for i in range(n):
            if i != k:
                m[i] = [(m[k][k] * y - m[i][k] * t) // prev for y, t in zip(m[i], m[k])]
        prev = m[k][k]
    return prev


def inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse in Fractions; raises ``ZeroDivisionError`` on singular input.

    Fraction-free Gauss-Jordan takes ``[M | I]`` to ``[d I | d M^-1]`` for the
    column-scaled ints ``M = a diag(e)``, and ``a^-1 = diag(e) M^-1``: row i
    of the inverse is the int row i of ``d M^-1`` scaled by ``e_i``, over ``d``,
    and one ``Fraction`` is built per entry.
    """
    n = a.shape[0]
    columns, scales = linalg._scaled_columns(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(zip(*columns))]
    d = _gauss_jordan(aug)
    if d == 0:
        raise ZeroDivisionError("matrix is singular over the rationals")
    return np.array([[Fraction(e * y, d) for y in row[n:]] for e, row in zip(scales, aug)], dtype=object).reshape(n, n)


def all_minors(a: np.ndarray):
    """Yield ``(rows, cols, value)`` over every square minor, smallest first.

    Minors of size k come in lexicographic order of ``rows``, then of
    ``cols``, and each value is the exact ``Fraction`` of the submatrix's
    determinant.  This is a view over the integer kernel
    ``linalg._minor_levels`` on a stack of one: one ``Fraction(s, den)`` per
    minor, and no arithmetic of its own.
    """
    n, m = a.shape
    for k, (values, dens) in enumerate(linalg._minor_levels(*linalg._scaled_stack([linalg._scaled_columns(a)])), 1):
        cols_k = list(itertools.combinations(range(m), k))
        for rows, row in zip(itertools.combinations(range(n), k), values[0].tolist()):
            for cols, s, den in zip(cols_k, row, dens[0].tolist()):
                yield rows, cols, Fraction(s, den)


def _fraction_row(row: dict, pivot) -> dict:
    """A row of ``linalg._scaled_echelon`` as the Fractions of its reduced echelon row."""
    d = row[pivot]
    return {c: Fraction(x, d) for c, x in row.items()}


def reduce_rows(rows) -> list:
    """Reduced row echelon basis of the span of sparse rows ``{column: Fraction}``.

    Returns ``[(pivot, row)]`` sorted by pivot column, each row sparse with
    its pivot entry 1, and every pivot column cleared from every other row.
    The reduced echelon basis of a span is unique, so the Fractions do not
    depend on the order of ``rows``.  Int entries are promoted to Fractions.
    This is a view over the integer pass ``linalg._scaled_echelon``: each
    input row is scaled by the LCM of its denominators, and one ``Fraction``
    is built per entry of the result.
    """
    scaled = []
    for row in rows:
        scale = math.lcm(1, *(x.denominator for x in row.values()))
        scaled.append({c: x.numerator * (scale // x.denominator) for c, x in row.items()})
    basis = linalg._scaled_echelon(scaled)
    return [(p, _fraction_row(basis[p], p)) for p in sorted(basis)]


def one_param(pinning: Pinning, kind: str, i: int, t) -> GroupElement:
    """One-parameter subgroup element: x_i(t), y_i(t), or the coweight h_i(t).

    ``x_i(t) = I + t e_i`` and ``y_i(t) = I + t f_i`` (the nilpotent series
    stops after one term); the coweight puts ``t`` at slot ``i`` and ``1/t``
    at slot ``i+1`` and requires ``t != 0``.  The parameter must be exact
    (a float raises ``TypeError``), and so is the element.
    """
    if i not in pinning.indices:
        raise ValueError(f"simple root index {i} out of range for n={pinning.n}")
    if not isinstance(t, Rational):
        raise TypeError("exact parameter required; rationalize a float parameter first")
    t = Fraction(t)
    m = rational_identity(pinning.n)
    if kind == "x":
        m[i - 1, i] = t
    elif kind == "y":
        m[i, i - 1] = t
    elif kind == "coweight":
        if t == 0:
            raise ValueError("coweight parameter must be nonzero")
        m[i - 1, i - 1] = t
        m[i, i] = 1 / t
    else:
        raise ValueError(f"kind must be 'x', 'y' or 'coweight', got {kind!r}")
    return GroupElement._det_one(m)


def apply_group(folding: Folding, g: GroupElement) -> GroupElement:
    """sigma(g) = S (g^T)^{-1} S^T, for an exact g (float entries raise ``TypeError``).

    S X S^T for X = (g^T)^-1 is X with both indices reversed and entry
    (a, b) signed (-1)^(a+b).
    """
    if not linalg.is_rational_array(g.entries):
        raise TypeError("exact entries required; rationalize float input first")
    out = inv(g.entries.T)[::-1, ::-1]
    out[1::2, ::2] = -out[1::2, ::2]  # negation, not a Fraction product per entry
    out[::2, 1::2] = -out[::2, 1::2]
    return GroupElement._det_one(out)  # det(S g^-T S^T) = det(g)^-1


def jacobian_pattern_dim(coords: Sl3Coords) -> int:
    """Cell dimension at an exact point: free coordinates minus Jacobian rank."""
    flat = list(coords.v) + list(coords.w)
    free = [k for k in range(6) if flat[k] != 0]
    v, w = coords.v, coords.w
    grads = [
        [1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [w[0], -w[1], w[2], v[0], -v[1], v[2]],
    ]
    jac = [{j: g[k] for j, k in enumerate(free) if g[k] != 0} for g in grads]
    return len(free) - len(reduce_rows(jac))


def exp_generator_sum(n: int, t: float) -> GroupElement:
    """exp(t * generator_sum) in SL(n), computed spectrally from the closed-form eigenbasis.

    The trace of the generator sum is zero, hence the result has
    determinant 1 up to roundoff.
    """
    d, p = generator_sum_spectrum(n)
    m = (p * np.exp(float(t) * d)) @ p.T
    return GroupElement((m + m.T) / 2.0, FLOAT)


def weyl_dim(weight) -> int:
    """The Weyl dimension of the module of ``weight``: prod over 1 <= i <= j <= n-1 of
    (c_i + ... + c_j + j - i + 1) / (j - i + 1), every factor taken."""
    n, c = weight.n, weight.coeffs
    pairs = [(i, j) for i in range(1, n) for j in range(i, n)]
    dim, rest = divmod(
        math.prod(sum(c[i - 1 : j]) + (j - i + 1) for i, j in pairs),
        math.prod(j - i + 1 for i, j in pairs),
    )
    assert rest == 0
    return dim


def frame_gaps(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """``||Qb_k - Qa_k Qa_k^T Qb_k||_2`` for k = 1..n-1 on the last axis: for orthonormal
    frames, the sine of the largest principal angle between the spans of their leading k
    columns (Bjorck-Golub 1973); stacks of frames keep their leading axes."""

    def gap(k):
        a, b = qa[..., :k], qb[..., :k]
        return np.linalg.norm(b - a @ (np.swapaxes(a, -1, -2) @ b), 2, axis=(-2, -1))

    return np.stack([gap(k) for k in range(1, qa.shape[-2])], axis=-1)


def fold_gaps(folding: Folding, rng, times, count: int) -> tuple:
    """The fold gate's ``(count, times)`` gaps, its control's ``(1, times)`` gaps and whether
    the control's column-scaled ints preserve the form of S, drawn from ``rng`` as the gate
    draws them: the samples' batch, then the control.  Samples and control each take their
    own QR, and each time and each side its own graded step and gap."""
    n = folding.n
    word, blocks = symmetric_word(n)
    s = linalg.to_float(folding.s_matrix)
    d, p = generator_sum_spectrum(n)
    sp = s @ p

    def flag_gaps(qu, qsu):
        return np.stack([_frame_gap(_graded_frame(qu, t, d, p), _graded_frame(qsu, -t, d, sp)) for t in times], axis=1)

    def qr_of(ints, scales):
        return np.linalg.qr((ints / scales[:, None, :]).astype(np.float64))[0]

    qu = qr_of(*_scaled_lower_products(word, _symmetric_batch(blocks, rng, count)))
    bad = break_symmetry(symmetric_params(n, rng))
    ints_bad, scales_bad = _scaled_lower_products(word, np.array([[t.as_integer_ratio() for t in bad.t]], dtype=object))
    q_bad = qr_of(ints_bad, scales_bad)
    q_sigma_bad = np.linalg.qr(s @ q_bad[..., ::-1])[0]
    return flag_gaps(qu, qu), flag_gaps(q_bad, q_sigma_bad), bool(_preserves_form(ints_bad, scales_bad)[0])


def encode_tree(obj):
    """Recursively encode a report structure for :func:`dumps_canonical`.

    Dicts keep their keys, tuples/lists/arrays become lists, sets become
    sorted lists, enums their values, and scalars go through
    :func:`encode_value` -- so no raw float ever reaches ``json.dumps``.
    """
    import enum

    if isinstance(obj, dict):
        return {str(k): encode_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_tree(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(encode_tree(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return encode_tree(obj.tolist())
    if isinstance(obj, enum.Enum):
        return obj.value
    return encode_value(obj)
