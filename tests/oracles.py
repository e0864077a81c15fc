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
- ``column_product`` (with its helper ``_reduced``), ``scaled_lower_products``,
  ``float_lower_products`` and ``wedge_column`` are the four loops that ran a word
  of positive letters before ``totpos._run_word`` took their place: an n x n
  product as Python ints, reduced after every letter; a stack of lower products
  as object ints; the same stack in binary64; and the leading column of a wedge
  power over one denominator.  The letter loop must give their rationals, and
  their bits in binary64;
- ``det`` (Bareiss elimination on the column-scaled ints, with its helper
  ``_bareiss``), ``exact_element`` (an exact element whose determinant 1 is
  checked), ``matmul`` and ``to_float`` are the exact group-element arithmetic
  that left ``linalg`` and ``chevalley.GroupElement``: the package builds an
  exact element only as a factor product, ``totpos.sample_positive``;
- ``scaled_stack`` and ``minor_levels_stacked`` are the Laplace kernel on a
  stack of matrices, and ``scaled_lines`` and ``exact_line`` the line of an
  exact matrix by its leading minors, the route ``line_of`` took on an exact
  element before it embedded an exact flag by its parameters only;
- ``symmetric_params`` and ``break_symmetry`` are the fold gate's
  ``Fraction`` parameters for a symmetric sample and its control, whose
  values and stream the gate's int ratios must keep;
- ``encode_tree`` is the first pass of the old two-pass report encoder: it
  copies a report into a tree of JSON scalars, and ``json.dumps(...,
  sort_keys=True, indent=2)`` of that copy is the text the one-pass writer
  ``serialize.dumps_canonical`` must produce.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from tnnflow import linalg
from tnnflow.chevalley import FLOAT, RATIONAL, GroupElement, Pinning, generator_sum_spectrum
from tnnflow.embedding import _pivot_digits
from tnnflow.flow import _frame_gap, _graded_frame
from tnnflow.folding import Folding, _preserves_form, _symmetric_batch, symmetric_word
from tnnflow.serialize import encode_value
from tnnflow.totpos import FactorizationParams, ReducedWord, Sl3Coords, _mask_indices, _positive_ratio, _wedge_table


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
    for k, (values, dens) in enumerate(linalg._minor_levels(*linalg._scaled_columns(a)), 1):
        cols_k = list(itertools.combinations(range(m), k))
        for rows, row in zip(itertools.combinations(range(n), k), values.tolist()):
            for cols, s, den in zip(cols_k, row, dens.tolist()):
                yield rows, cols, Fraction(s, den)


def _bareiss(m: list) -> tuple[int, int]:
    """Bareiss elimination of int rows in place, below each pivot.

    Entries stay integer minors, so each division is exact.  Returns the last pivot
    ``d`` (0 if singular) and the sign of the row swaps; the determinant is ``sign * d``.
    """
    n, sign, prev = len(m), 1, 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            return 0, sign
        if pivot_row != k:
            m[k], m[pivot_row], sign = m[pivot_row], m[k], -sign
        for i in range(k + 1, n):
            m[i] = [(m[k][k] * y - m[i][k] * t) // prev for y, t in zip(m[i], m[k])]
        prev = m[k][k]
    return prev, sign


def det(a: np.ndarray) -> Fraction:
    """Exact determinant, always a ``Fraction``: Bareiss on the column-scaled ints, over ``prod(e_c)``."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    columns, scales = linalg._scaled_columns(a)
    d, sign = _bareiss([list(row) for row in zip(*columns)])
    return Fraction(sign * d, math.prod(scales))


def exact_element(entries: np.ndarray) -> GroupElement:
    """An exact group element from object or integer entries (integer ones are kept as an
    object array of Python ints, so that products do not wrap around), its determinant
    checked to be 1: other entries raise ``TypeError``, another determinant ``ValueError``."""
    if entries.dtype.kind not in "Oiu":
        raise TypeError(f"a rational group element cannot hold {entries.dtype} entries")
    if entries.dtype.kind in "iu":
        entries = entries.astype(object)
    if det(entries) != 1:
        raise ValueError("exact group element must have determinant 1")
    return GroupElement._det_one(entries)


def matmul(g: GroupElement, *rest: GroupElement) -> GroupElement:
    """``g h ...``, left to right: exact elements compose exactly, and mixing an exact
    element with a float one demotes the product to floats."""
    for h in rest:
        if g.field == RATIONAL and h.field == RATIONAL:
            g = GroupElement._det_one(g.entries @ h.entries)  # det is multiplicative
        else:
            g = GroupElement(linalg.to_float(g.entries) @ linalg.to_float(h.entries), FLOAT)
    return g


def to_float(g: GroupElement) -> GroupElement:
    """The binary64 element of ``g``: each entry rounded once."""
    if g.field == FLOAT:
        return g
    return GroupElement(linalg.to_float(g.entries), FLOAT)


def scaled_stack(scaled) -> tuple[np.ndarray, np.ndarray]:
    """A sequence of column-scaled pairs ``(columns, scales)`` of one shape as object
    arrays of Python ints: ``ints`` ``(s, n, m)``, entry ``[i, r, c] = columns[c][r]`` of
    pair i, and ``scales`` ``(s, m)``."""
    m = len(scaled[0][0])
    n = len(scaled[0][0][0]) if m else 0
    ints = np.array([columns for columns, _ in scaled], dtype=object).reshape(len(scaled), m, n)
    return ints.swapaxes(1, 2), np.array([scales for _, scales in scaled], dtype=object).reshape(len(scaled), m)


def minor_levels_stacked(ints: np.ndarray, scales: np.ndarray, kmax: int | None = None):
    """Yield ``(values, dens)`` for each minor size k = 1..kmax, for a stack of column-scaled ints
    laid out by :func:`scaled_stack`: ``linalg._minor_levels`` with a leading stack axis,
    ``values[i]`` and ``dens[i]`` those of matrix i.  Each level is summed in blocks of
    rows of about ``linalg._BLOCK`` minors over the whole stack."""
    stack, n, m = ints.shape
    prev = np.ones((stack, 1, 1), dtype=object)
    dens = np.ones((stack, 1), dtype=object)
    for k in range(1, (min(n, m) if kmax is None else kmax) + 1):
        picked, dropped, heads, lasts = linalg._laplace_tables(n, m, k)
        entries, below = ints[:, :, lasts], prev[:, :, heads]
        level = np.empty((stack, len(picked), len(lasts)), dtype=object)
        step = max(1, linalg._BLOCK // (stack * len(lasts)))
        for start in range(0, len(picked), step):
            rows = slice(start, start + step)
            # the term of row j has the sign (-1)**(k-1-j)
            block = entries[:, picked[rows, k - 1]] * below[:, dropped[rows, k - 1]]
            for j in range(k - 2, -1, -1):
                term = entries[:, picked[rows, j]] * below[:, dropped[rows, j]]
                block = block - term if (k - 1 - j) % 2 else block + term
            level[:, rows] = block
        dens = dens[:, heads] * scales[:, lasts]
        yield level, dens
        prev = level


def scaled_lines(rep, scaled) -> np.ndarray:
    """The lines of a stack of exact matrices, each given by its column-scaled ints
    ``(columns, scales)``, ``m`` pairs to ``(m, dim)`` in binary64.

    The minors come from one call of the stacked minor kernel on the leading
    max(factors) columns of the stack, and each level's column set 0, the
    leading columns, is read; each pivot coordinate is the int product of one
    minor per factor over the product of their denominators, divided once as
    Python ints, so each row is bit for bit its matrix's line.
    """
    (ints, scales), kmax = scaled_stack(scaled), max(rep.factors)
    minors = minor_levels_stacked(ints[:, :, :kmax], scales[:, :kmax])
    levels = {k: level for k, level in enumerate(minors, 1) if k in rep.factors}
    numer = functools.reduce(np.multiply, (levels[k][0][:, d, 0] for k, d in zip(rep.factors, _pivot_digits(rep))))
    denom = functools.reduce(np.multiply, (levels[k][1][:, 0] for k in rep.factors))
    return (numer / denom[:, None]).astype(np.float64)


def exact_line(rep, g: GroupElement) -> np.ndarray:
    """The line of an exact element by its leading minors: :func:`scaled_lines` on a stack of one."""
    if g.n != rep.n:
        raise ValueError(f"a {g.n} x {g.n} matrix does not act on a module for n = {rep.n}")
    return scaled_lines(rep, [linalg._scaled_columns(g.entries)])[0]


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

    qu = qr_of(*scaled_lower_products(word, _symmetric_batch(blocks, rng, count)))
    bad = break_symmetry(symmetric_params(n, rng))
    ints_bad, scales_bad = scaled_lower_products(word, np.array([[t.as_integer_ratio() for t in bad.t]], dtype=object))
    q_bad = qr_of(ints_bad, scales_bad)
    q_sigma_bad = np.linalg.qr(s @ q_bad[..., ::-1])[0]
    return flag_gaps(qu, qu), flag_gaps(q_bad, q_sigma_bad), bool(_preserves_form(ints_bad, scales_bad)[0])


def symmetric_params(
    n: int,
    rng: np.random.Generator,
    zero_blocks=None,
) -> FactorizationParams:
    """Random flip-symmetric factorization parameters (exact rationals).

    One positive value is drawn per folded letter and copied across its
    orbit block, so the resulting lower-unipotent product is exactly fixed
    by sigma.  ``zero_blocks`` pins whole blocks to zero (boundary samples);
    a block index outside the blocks raises ``ValueError``.  One
    ``rng.uniform`` call draws the blocks that are not zeroed, in block order,
    each value the ``Fraction`` of its :func:`~tnnflow.totpos._positive_ratio`:
    with no block zeroed, the stream and the values of a row of
    :func:`~tnnflow.folding._symmetric_batch`.
    """
    word, blocks = symmetric_word(n)
    zeroed = _mask_indices(() if zero_blocks is None else zero_blocks, len(blocks), "zero_blocks")
    kept = [b for b in range(len(blocks)) if b not in zeroed]
    values = {b: Fraction(*_positive_ratio(x)) for b, x in zip(kept, rng.uniform(-3.0, 3.0, len(kept)).tolist())}
    return FactorizationParams(word, tuple(values.get(b, Fraction(0)) for b, block in enumerate(blocks) for _ in block))


def break_symmetry(params: FactorizationParams) -> FactorizationParams:
    """Perturb one member of a tied pair: the negative control sample.

    Raises ``ValueError`` when no tied pair has a positive parameter to untie,
    as at n = 2, whose one block is the middle letter.
    """
    word, blocks = symmetric_word(params.word.n)
    if word.letters != params.word.letters:
        raise ValueError("parameters do not come from the symmetric word")
    vals = list(params.t)
    pair = next((b for b in blocks if len(b) == 2 and vals[b[0]] > 0), None)
    if pair is None:
        raise ValueError("no tied pair has a positive parameter to untie")
    vals[pair[0]] = vals[pair[0]] * 2
    return FactorizationParams(word, tuple(vals))


def float_lower_products(word: ReducedWord, ts: np.ndarray) -> np.ndarray:
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


def scaled_lower_products(word: ReducedWord, ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower-unipotent products along ``word`` of a stack of int ratios, ``(m, len(word), 2)``
    object ints ``(p, q)``, ``(0, 1)`` for a zeroed parameter, as a stack of column-scaled
    ints ``(ints, scales)``: ``(m, n, n)`` and ``(m, n)`` object arrays, matrix k being
    ``ints[k] / scales[k]`` column by column.

    This is :func:`column_product` on the whole stack: one column operation per
    letter, y_i(p / q) adding p / q times column i to column i-1, as object-array
    int arithmetic across the stack.  Column i-1's new scale is the LCM of its
    scale and q times column i's (kept where p = 0), as in
    :func:`column_product`, which also divides out the gcd of each column: the
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


def _reduced(column: list, den: int) -> tuple[list, int]:
    g = math.gcd(den, *column)
    return ([x // g for x in column], den // g) if g > 1 else (column, den)


def column_product(n: int, steps) -> tuple[list, list]:
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


def wedge_column(n: int, k: int, steps) -> tuple[list, int]:
    """The leading compound column of the product of ``steps`` on the k-th wedge power,
    as ints ``w`` over one denominator ``den``: entry a is ``w[a] / den`` on the a-th
    k-subset.

    The factors ``(kind, i, p, q)`` of :func:`~tnnflow.totpos._steps` act right to left
    on e_[k], index 0, by the moves of :func:`_wedge_table`.  y_i(p / q) is I + (p / q)
    F_i and x_i(p / q) is I + (p / q) E_i: w is scaled by q and den by q, then each
    source entry, nonzero, adds p times itself to its target.  F_i^2 = 0, so no source
    is a target, and no term is ever subtracted.  A letter with p = 0 or with no nonzero
    source is skipped.  The coweight h_i(p / q) scales subset S by (p / q)^e with
    e = [i - 1 in S] - [i in S], as p^(1 + e) q^(1 - e) over den * p * q.
    """
    members, _, moves = _wedge_table(n, k)
    w, den = [1] + [0] * (len(members) - 1), 1
    for kind, i, p, q in reversed(steps):
        if kind == "coweight":
            if p != q:
                ups = (members[:, i - 1] - members[:, i]).tolist()
                w = [x * p ** (1 + e) * q ** (1 - e) for x, e in zip(w, ups)]
                den *= p * q
            continue
        if not p:
            continue
        pairs = ([(a, b) for a, b in zip(*moves[i]) if w[a]] if kind == "y"
                 else [(b, a) for a, b in zip(*moves[i]) if w[b]])
        if not pairs:
            continue
        old = w
        if q != 1:
            w, den = [x * q for x in w], den * q
        for a, b in pairs:
            w[b] += p * old[a]
    return w, den


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
