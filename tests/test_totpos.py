"""Total positivity: factorizations, the all-minors oracle, flags carried by
matrices, and the SL(3) coordinate chart."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import one_param
from tnnflow import linalg, totpos
from tnnflow.chevalley import FLOAT, RATIONAL, build_pinning
from tnnflow.totpos import (
    FactorizationParams,
    _certificate,
    _float_lower_samples,
    _scaled_product,
    Membership,
    Positivity,
    ReducedWord,
    certify_minors,
    flag_minors,
    is_tnn_matrix,
    sample_params,
    sample_positive,
    sl3_coords,
    sl3_membership,
    sl3_residuals,
    standard_word_w0,
)


# -- reduced words -----------------------------------------------------------


def test_standard_word():
    assert standard_word_w0(3).letters == (1, 2, 1)
    assert standard_word_w0(4).letters == (1, 2, 1, 3, 2, 1)


def test_reduced_word_validation():
    with pytest.raises(ValueError):
        ReducedWord(3, (1, 2))  # too short
    with pytest.raises(ValueError):
        ReducedWord(3, (1, 2, 3))  # letter out of range
    with pytest.raises(ValueError):
        ReducedWord(3, (1, 1, 2))  # not reduced: product is not w0
    # a non-standard but valid reduced word
    ReducedWord(3, (2, 1, 2))


# -- sampling and classification ---------------------------------------------


def test_positivity_oracle_small_cases():
    tp = oracles.rational_matrix([[2, 1], [1, 1]])
    tnn = oracles.rational_matrix([[1, 1], [0, 1]])
    neither = oracles.rational_matrix([[0, 1], [1, 0]])
    assert is_tnn_matrix(tp) is Positivity.TOTALLY_POSITIVE
    assert is_tnn_matrix(tnn) is Positivity.TOTALLY_NONNEGATIVE
    assert is_tnn_matrix(neither) is Positivity.NEITHER


def test_positivity_oracle_requires_exact_entries():
    for floats in (np.eye(2), np.eye(2, dtype=np.float32)):
        with pytest.raises(TypeError):
            is_tnn_matrix(floats)
        with pytest.raises(TypeError):
            certify_minors(floats)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_positivity_oracle_reads_integer_arrays(dtype):
    """An integer array is exact: it is certified as its ``Fraction`` copy is."""
    for rows, verdict in (([[2, 1], [1, 2]], Positivity.TOTALLY_POSITIVE), ([[1, 1], [0, 1]], Positivity.TOTALLY_NONNEGATIVE)):
        a = np.array(rows, dtype=dtype)
        assert is_tnn_matrix(a) is verdict
        assert certify_minors(a) == certify_minors(oracles.rational_matrix(rows))
    assert is_tnn_matrix(np.array([[0, 1], [1, 0]])) is Positivity.NEITHER


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_a_matrix_with_no_rows_or_columns_is_refused(shape):
    """No minor to certify: a one-line ``ValueError``, for object and int arrays."""
    for a in (np.empty(shape, dtype=object), np.zeros(shape, dtype=int)):
        for certify in (is_tnn_matrix, certify_minors):
            with pytest.raises(ValueError, match="no minors to certify"):
                certify(a)


@pytest.mark.parametrize("seed", range(5))
def test_group_samples_are_totally_positive(seed):
    rng = np.random.default_rng(seed)
    params = sample_params(standard_word_w0(3), rng, group=True)
    g = sample_positive(params, "group")
    assert g.field == RATIONAL
    assert is_tnn_matrix(g) is Positivity.TOTALLY_POSITIVE


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_unipotent_samples_are_tnn(side):
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = sample_params(standard_word_w0(3), rng)
        g = sample_positive(params, side)
        assert is_tnn_matrix(g) is Positivity.TOTALLY_NONNEGATIVE
        tri = linalg.to_float(g.entries)
        if side == "upper":
            assert np.allclose(np.tril(tri, -1), 0.0)
        else:
            assert np.allclose(np.triu(tri, 1), 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_samples_have_determinant_one(n):
    """sample_positive skips the det check; the exact det of every side is still 1."""
    rng = np.random.default_rng([n, 3])
    word = standard_word_w0(n)
    ell = len(word)
    for mask in (None, [0], list(range(0, ell, 2))):
        for side in ("upper", "lower"):
            g = sample_positive(sample_params(word, rng, zero_mask=mask), side)
            assert oracles.det(g.entries) == 1
        with_torus = sample_params(word, rng, zero_mask=mask, group=True)
        without_torus = FactorizationParams(word, with_torus.t)
        for params in (with_torus, without_torus):
            g = sample_positive(params, "group")
            assert g.field == RATIONAL and oracles.det(g.entries) == 1
            assert not g.entries.flags.writeable


def test_zero_mask_lands_on_boundary():
    rng = np.random.default_rng(1)
    word = standard_word_w0(3)
    params = sample_params(word, rng, zero_mask=[0, 1, 2])
    g = sample_positive(params, "lower")
    assert np.equal(g.entries, oracles.rational_identity(3)).all()


def _oracle_minors(a, det):
    n = a.shape[0]
    return [
        det(a[np.ix_(rows, cols)])
        for k in range(1, n + 1)
        for rows in itertools.combinations(range(n), k)
        for cols in itertools.combinations(range(n), k)
    ]


def _sign_rule(values):
    if any(v < 0 for v in values):
        return Positivity.NEITHER
    if all(v > 0 for v in values):
        return Positivity.TOTALLY_POSITIVE
    return Positivity.TOTALLY_NONNEGATIVE


@pytest.mark.parametrize("n", range(2, 7))
def test_verdict_matches_sign_rule_over_oracle_minors(n, leibniz_det):
    rng = np.random.default_rng([n, 11])
    word = standard_word_w0(n)
    interior = sample_positive(sample_params(word, rng, group=True), "group").entries
    mask = rng.choice(2 * len(word), size=n, replace=False)
    boundary = sample_positive(sample_params(word, rng, group=True, zero_mask=mask), "group").entries
    j = int(rng.integers(0, n - 1))
    swapped = interior.copy()
    swapped[:, [j, j + 1]] = swapped[:, [j + 1, j]]
    cases = [
        (interior, Positivity.TOTALLY_POSITIVE),
        (boundary, Positivity.TOTALLY_NONNEGATIVE),
        (swapped, Positivity.NEITHER),
    ]
    for a, expected in cases:
        values = _oracle_minors(a, leibniz_det)
        assert _sign_rule(values) is expected
        assert is_tnn_matrix(a) is expected
        assert certify_minors(a) == (expected, min(values))


def _extreme_params(word, rng, group):
    """Parameters of size e^20 or e^-20, each made exact."""

    def draw():
        return Fraction(*math.exp(rng.choice([-20.0, 20.0]) + rng.uniform(-1.0, 1.0)).as_integer_ratio())

    count = (2 if group else 1) * len(word)
    torus = tuple(draw() for _ in range(word.n - 1)) if group else None
    return FactorizationParams(word, tuple(draw() for _ in range(count)), torus)


@pytest.mark.parametrize(
    "n, side",
    [(n, side) for n in range(2, 8) for side in ("group", "lower") if (n, side) != (7, "group")]
    # about 7 s: 3,431 exact dets per matrix, over the largest ints
    + [pytest.param(7, "group", marks=pytest.mark.slow)],
)
def test_certificate_matches_the_bareiss_oracle(n, side):
    """Verdict and least minor against ``oracles.det`` of every square submatrix.

    Interior, boundary (``zero_mask``), near-singular (the masked parameters
    at 2**-80 instead of 0, so some minors nearly vanish), extreme (e^±20) and
    column-swapped samples.  The oracle is Bareiss elimination on each
    submatrix, which shares no arithmetic with the Laplace pass.
    """
    group = side == "group"
    rng = np.random.default_rng([n, 17, int(group)])
    word = standard_word_w0(n)
    drawn = sample_params(word, rng, group=group)
    mask = rng.choice(len(drawn.t), size=min(n, len(drawn.t)), replace=False)
    tiny = tuple(Fraction(1, 2**80) if k in mask else t for k, t in enumerate(drawn.t))
    interior = sample_positive(drawn, side).entries
    j = int(rng.integers(0, n - 1))
    swapped = interior.copy()
    swapped[:, [j, j + 1]] = swapped[:, [j + 1, j]]
    inside = Positivity.TOTALLY_POSITIVE if group else Positivity.TOTALLY_NONNEGATIVE
    cases = [
        (interior, inside),
        (sample_positive(sample_params(word, rng, group=group, zero_mask=mask), side).entries,
         Positivity.TOTALLY_NONNEGATIVE),
        (sample_positive(FactorizationParams(word, tiny, drawn.torus), side).entries, inside),
        (sample_positive(_extreme_params(word, rng, group), side).entries, inside),
        (swapped, Positivity.NEITHER),
    ]
    for a, expected in cases:
        values = _oracle_minors(a, oracles.det)
        assert _sign_rule(values) is expected
        assert is_tnn_matrix(a) is expected
        assert certify_minors(a) == (expected, min(values))


def _dense_product(params, side):
    """The factorization multiplied out one dense ``one_param`` factor at a time."""
    word = params.word
    pin = build_pinning(word.n)
    ell = len(word)
    factors = []
    if side in ("upper", "group"):
        factors += [("x", i, t) for i, t in zip(word.letters, params.t[:ell])]
    if side == "group":
        torus = params.torus if params.torus is not None else (Fraction(1),) * (word.n - 1)
        factors += [("coweight", i, s) for i, s in zip(pin.indices, torus)]
    # with 2 * ell parameters the lower factor takes the second half
    lower = params.t[-ell:]
    if side in ("lower", "group"):
        factors += [("y", i, t) for i, t in zip(word.letters, lower)]
    return oracles.matmul(*(one_param(pin, *f) for f in factors))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("side", ["upper", "lower", "group"])
def test_sample_positive_matches_dense_product(n, side):
    rng = np.random.default_rng([n, 5])
    word = standard_word_w0(n)
    ell = len(word)
    group = side == "group"
    drawn = sample_params(word, rng, group=group)
    count = len(drawn.t)
    cases = [
        drawn,
        sample_params(word, rng, group=group, zero_mask=rng.choice(count, size=count // 2 + 1, replace=False)),
    ]
    if group:
        # torus omitted, and one t shared by the upper and the lower half
        cases += [FactorizationParams(word, drawn.t, None), FactorizationParams(word, drawn.t[:ell], None)]
    for params in cases:
        got, want = sample_positive(params, side), _dense_product(params, side)
        assert got.field == want.field == RATIONAL
        assert np.equal(got.entries, want.entries).all()
    # float parameters are refused, as float entries are by the minors pass
    floated = [FactorizationParams(word, tuple(float(t) for t in drawn.t), drawn.torus)]
    if group:
        floated.append(FactorizationParams(word, drawn.t, tuple(float(s) for s in drawn.torus)))
    for params in floated:
        with pytest.raises(TypeError):
            sample_positive(params, side)


# non-dyadic and zero parameters, and magnitudes near e^20 and e^-20: values
# that sample_params never draws, so the denominators of the int columns differ
exact_scalars = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30),
    st.sampled_from([Fraction(1, 3), Fraction(7, 5), Fraction(1455495586, 3), Fraction(3, 1455495586)]),
)


@st.composite
def exact_factorizations(draw):
    n = draw(st.integers(2, 5))
    side = draw(st.sampled_from(["upper", "lower", "group"]))
    word = standard_word_w0(n)
    count = len(word) * (draw(st.sampled_from([1, 2])) if side == "group" else 1)
    t = draw(st.lists(exact_scalars, min_size=count, max_size=count))
    positive = exact_scalars.filter(lambda x: x > 0)
    torus = draw(st.none() | st.lists(positive, min_size=n - 1, max_size=n - 1).map(tuple))
    return FactorizationParams(word, tuple(t), torus), side


@settings(max_examples=80, deadline=None)
@given(exact_factorizations())
def test_exact_sample_positive_matches_dense_product(case):
    params, side = case
    got, want = sample_positive(params, side), _dense_product(params, side)
    assert got.field == want.field == RATIONAL
    assert np.equal(got.entries, want.entries).all()
    assert all(type(x) is Fraction for x in got.entries.flat)


mixed_entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
    st.fractions(min_value=0, max_value=4, max_denominator=9),
)


@st.composite
def certify_cases(draw):
    """Small square matrices: free entries with mixed denominators (mostly
    NEITHER), or exact factorization products (TP or TNN)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(mixed_entries, min_size=n, max_size=n), min_size=n, max_size=n))
        return np.array(rows, dtype=object)
    params, side = draw(exact_factorizations())
    return sample_positive(params, side).entries


# the least minor 2/9 is a 2-minor whose scaled int (2, over e_0 e_1 = 9)
# exceeds the least scaled 1-minor (1, over e_0 = 3)
@example(a=np.array([[Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 3), 1]], dtype=object))
# the least minor 2/3 is a 1-minor in column 0, whose scaled int (2, over e_0 = 3)
# exceeds the least scaled int of column 1 (1, over e_1 = 1): across column
# sets the ints order differently from the minors
@example(a=np.array([[Fraction(2, 3), 1], [1, 3]], dtype=object))
@example(a=np.array([[Fraction(1, 2), 3], [Fraction(1, 7), 1]], dtype=object))
@settings(max_examples=150, deadline=None)
@given(a=certify_cases())
def test_certificate_matches_leibniz_oracle(a, leibniz_det):
    values = _oracle_minors(a, leibniz_det)
    expected = _sign_rule(values)
    assert is_tnn_matrix(a) is expected
    verdict, least = certify_minors(a)
    assert verdict is expected and least == min(values) and type(least) is Fraction


def test_lower_side_of_a_two_half_set_reads_the_second_half():
    """With 2 * ell parameters the first half is the upper factor and the second
    the lower, on the 'upper' and 'lower' sides as on 'group'."""
    word = standard_word_w0(3)
    ell = len(word)
    params = sample_params(word, np.random.default_rng(3), group=True)
    for side, half in (("upper", params.t[:ell]), ("lower", params.t[ell:])):
        want = sample_positive(FactorizationParams(word, half), side).entries
        assert np.equal(sample_positive(params, side).entries, want).all(), side


@pytest.mark.parametrize("n", range(2, 9))
def test_scaled_product_is_the_scaled_columns_of_the_fraction_product(n):
    """The int columns of the product are in lowest terms, so they are the column
    ints and column LCMs that ``linalg._scaled_columns`` reads back off the
    Fractions; and their binary64 matrix, by int true division, is ``to_float``
    of the Fractions.  On every side, with zeroed parameters and with
    magnitudes near e^20 and e^-20."""
    rng = np.random.default_rng([n, 41])
    word = standard_word_w0(n)
    for side in ("upper", "lower", "group"):
        group = side == "group"
        drawn = sample_params(word, rng, group=group)
        count = len(drawn.t)
        extreme = tuple(Fraction(*math.exp(20.0 * s + rng.uniform(-1.0, 1.0)).as_integer_ratio())
                        for s in rng.choice([-1, 1], count))
        for params in (
            drawn,
            sample_params(word, rng, group=group, zero_mask=rng.choice(count, size=count // 2 + 1, replace=False)),
            FactorizationParams(word, extreme, drawn.torus),
        ):
            columns, scales = _scaled_product(params, side)
            entries = sample_positive(params, side).entries
            assert (columns, scales) == linalg._scaled_columns(entries), side
            got = linalg._float_of_scaled(columns, scales)
            assert got.dtype == np.float64 and got.tobytes() == linalg.to_float(entries).tobytes(), side


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_sample_params_draws_the_stream_of_scalar_draws(seed):
    """One vector draw gives the exact value of e^x for one scalar draw x per
    parameter, t first and then the torus, and leaves the generator where the
    scalar draws leave it."""
    word = standard_word_w0(4)
    ell = len(word)

    def scalar(oracle):
        return Fraction(*math.exp(oracle.uniform(-3.0, 3.0)).as_integer_ratio())

    for group, mask in ((False, None), (True, None), (False, [0, 3]), (True, [1, ell + 2])):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        params = sample_params(word, rng, zero_mask=mask, group=group)
        vals = [scalar(oracle) for _ in range((2 if group else 1) * ell)]
        torus = tuple(scalar(oracle) for _ in range(word.n - 1))
        for k in mask or ():
            vals[k] = Fraction(0)
        assert params.t == tuple(vals) and params.torus == (torus if group else None)
        assert rng.uniform() == oracle.uniform()


def _looped_lower_product(word, ts):
    """The lower product of one row of binary64 parameters, a column operation at a time in
    Python floats, a zero parameter skipped: the oracle of the stacked kernel."""
    n = word.n
    cols = [[float(r == c) for r in range(n)] for c in range(n)]
    for i, t in zip(word.letters, ts):
        if t:
            cols[i - 1] = [a + t * b for a, b in zip(cols[i - 1], cols[i])]
    return np.array(cols).T


def _rounds_the_exact_product(got, params, word):
    """``got`` is within 2 len(word) ulps, relative, of the exact lower product of
    ``params`` rounded, and zero exactly where that is."""
    want = linalg._float_of_scaled(*_scaled_product(params, "lower"))
    bound = 2 * len(word) * np.finfo(np.float64).eps
    return np.array_equal(got == 0.0, want == 0.0) and bool(np.all(np.abs(got - want) <= bound * np.abs(want)))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_float_lower_products_are_the_per_sample_loop(n):
    """The stacked kernel gives each matrix bit for bit as the column operations on its
    parameters alone, in a Python loop that skips a zeroed letter, zeroed letters
    included: none, one, some, and all, which gives the identity."""
    word = standard_word_w0(n)
    ell = len(word)
    rng = np.random.default_rng([n, 31])
    ts = np.exp(rng.uniform(-3.0, 3.0, (8, ell)))
    for k, size in enumerate((0, 1, 2, ell // 2, ell - 1, ell, 0, 3)):
        ts[k, rng.choice(ell, size=min(size, ell), replace=False)] = 0.0
    got = oracles.float_lower_products(word, ts)
    assert got.shape == (8, n, n) and got.dtype == np.float64
    for g, row in zip(got, ts.tolist()):
        assert g.tobytes() == _looped_lower_product(word, row).tobytes()
    assert np.array_equal(got[5], np.eye(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_float_lower_products_round_the_exact_products(n):
    """Each entry of the kernel's product of the floats of ``sample_params`` lies within
    2 len(word) ulps, relative, of the exact product rounded, and is zero exactly where
    that is, on interior and boundary draws: no term is ever subtracted."""
    word = standard_word_w0(n)
    ell = len(word)
    rng = np.random.default_rng([n, 32])
    drawn = [sample_params(word, rng, zero_mask=rng.choice(ell, size=size, replace=False))
             for size in (0, 0, 1, ell // 2, ell - 1)]
    got = oracles.float_lower_products(word, [[float(t) for t in params.t] for params in drawn])
    for g, params in zip(got, drawn):
        assert _rounds_the_exact_product(g, params, word)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_lower_products_are_the_products_of_sequential_draws(n):
    """One batch draw multiplies out, in binary64, the products of ``count`` sequential
    ``sample_params`` draws: each parameter is bit for bit the float of its exact ratio,
    each product rounds the exact one as the kernel does, and the generator ends where
    the sequential draws leave it."""
    word = standard_word_w0(n)
    for seed, count in ((n, 1), (n + 10, 6)):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _float_lower_samples(word, rng, count)
        assert got.shape == (count, n, n)
        drawn = [sample_params(word, oracle) for _ in range(count)]
        want = oracles.float_lower_products(word, [[float(t) for t in params.t] for params in drawn])
        assert got.tobytes() == want.tobytes()
        assert all(_rounds_the_exact_product(g, params, word) for g, params in zip(got, drawn))
        assert rng.uniform() == oracle.uniform()


@pytest.mark.parametrize("n", range(2, 8))
def test_letter_loop_gives_what_each_old_loop_gives(n):
    """The one letter loop equals each of the four loops it replaced (``tests/oracles.py``):
    the n x n product on every side as the same lowest-terms ``(columns, scales)`` as
    ``column_product``; the leading column of every wedge power, run on g^T's word, as
    the same rationals as ``wedge_column``'s ``(w, den)``; a stack of lower products in
    object ints as the same rationals as ``scaled_lower_products``; and the same stack
    in binary64, bit for bit, as ``float_lower_products``.  On drawn parameters, on
    zeroed ones (some and all) and on magnitudes near e^20 and e^-20."""
    rng = np.random.default_rng([n, 42])
    word = standard_word_w0(n)
    rows = []
    for side in ("upper", "lower", "group"):
        drawn = sample_params(word, rng, group=side == "group")
        extreme = tuple(Fraction(*math.exp(20.0 * s + rng.uniform(-1.0, 1.0)).as_integer_ratio())
                        for s in rng.choice([-1, 1], len(drawn.t)))
        some = tuple(Fraction(0) if j % 3 == 0 else t for j, t in enumerate(drawn.t))
        for t in (drawn.t, some, (Fraction(0),) * len(drawn.t), extreme):
            params = FactorizationParams(word, t, drawn.torus)
            rows.append(params.t[-len(word):])
            steps = totpos._steps(params, side)
            assert _scaled_product(params, side) == oracles.column_product(n, steps), side
            transposed = [({"x": "y", "y": "x"}.get(kind, kind), i, p, q) for kind, i, p, q in reversed(steps)]
            for k in range(1, n + 1):
                start = [([int(a == 0)], 1) for a in range(math.comb(n, k))]
                got = totpos._run_word(n, k, transposed, start, totpos._int_add, totpos._int_scale)
                w, den = oracles.wedge_column(n, k, steps)
                assert [Fraction(ints[0], d) for ints, d in got] == [Fraction(x, den) for x in w], (side, k)
    m = len(rows)
    ratios = np.array([[t.as_integer_ratio() for t in row] for row in rows], dtype=object)
    letters = [("y", i, p, q) for i, (p, q) in zip(word.letters, ratios.transpose(1, 2, 0))]
    start = (np.tile(np.eye(n, dtype=object), (m, 1, 1)), np.ones((m, n), dtype=object))
    ints, scales = totpos._run_word(n, 1, letters, start, totpos._stack_add)
    want_ints, want_scales = oracles.scaled_lower_products(word, ratios)
    assert (ints * want_scales[:, None, :] == want_ints * scales[:, None, :]).all()
    ts = np.array([[float(t) for t in row] for row in rows])
    letters = [("y", i, t) for i, t in zip(word.letters, ts.T)]
    got = totpos._run_word(n, 1, letters, np.tile(np.eye(n), (m, 1, 1)), totpos._float_add)
    assert got.dtype == np.float64 and np.array_equal(got, oracles.float_lower_products(word, ts))


def test_sample_params_refuses_a_mask_index_outside_the_parameters():
    """A negative index, or one past the parameters, raises ``ValueError`` naming it,
    before anything is drawn; the last index of a two-half draw is still in range."""
    word = standard_word_w0(3)
    for group, bad in ((False, -1), (False, 3), (True, 6), (True, -4)):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"zero_mask index {bad} "):
            sample_params(word, rng, zero_mask=[0, bad], group=group)
        assert rng.uniform() == np.random.default_rng(0).uniform()
    assert sample_params(word, np.random.default_rng(0), zero_mask=[5], group=True).t[5] == 0


def test_sample_positive_rejects_unknown_side():
    params = sample_params(standard_word_w0(3), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_positive(params, "middle")


# -- flags carried by matrices -------------------------------------------------


rational_params = st.lists(
    st.fractions(min_value="1/40", max_value=40, max_denominator=40),
    min_size=3,
    max_size=3,
)


@settings(max_examples=30, deadline=None)
@given(rational_params, rational_params)
def test_flag_invariant_under_stabilizer(tvals, svals):
    """Right multiplication by upper-triangular matrices fixes the flag."""
    pin = build_pinning(3)
    g = oracles.matmul(oracles.exact_element(oracles.rational_identity(3)),
                       *(one_param(pin, "y", i, t) for i, t in zip((1, 2, 1), tvals)))
    stab = oracles.matmul(one_param(pin, "x", 1, svals[0]), one_param(pin, "x", 2, svals[1]),
                          one_param(pin, "coweight", 1, svals[2]))
    got, want = sl3_coords(oracles.matmul(g, stab).entries), sl3_coords(g.entries)
    assert got.field == want.field == RATIONAL
    assert got == want


@settings(max_examples=25, deadline=None)
@given(rational_params)
def test_sl3_coords_of_float_frame_track_exact_flag(tvals):
    """(v, w) read off a float matrix, or off its orthonormal frame, match the exact flag."""
    pin = build_pinning(3)
    g = oracles.matmul(oracles.exact_element(oracles.rational_identity(3)),
                       *(one_param(pin, "y", i, t) for i, t in zip((1, 2, 1), tvals)))
    exact = sl3_coords(g.entries).as_vector().astype(np.float64)
    floated = oracles.to_float(g).entries
    frame, _ = np.linalg.qr(floated)
    for m in (floated, frame):
        got = sl3_coords(m)
        assert got.field == FLOAT
        assert np.max(np.abs(got.as_vector() - exact)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_flag_minors_are_each_frames_own_dets(n):
    """Each stacked minor is bit for bit the ``det`` of its frame's minor alone, and
    rounds the exact leading minor of a factorization product to 1e-12 relative."""
    rng = np.random.default_rng(n)
    word = standard_word_w0(n)
    products = [_scaled_product(sample_params(word, rng), "lower") for _ in range(3)]
    frames = np.array([linalg._float_of_scaled(*scaled) for scaled in products] + [rng.standard_normal((n, n))])
    minors = flag_minors(frames, range(1, n + 1))
    assert sorted(minors) == list(range(1, n + 1))
    for k, level in minors.items():
        subsets = list(itertools.combinations(range(n), k))
        assert level.shape == (len(frames), len(subsets))
        for frame, row in zip(frames, level):
            want = [np.linalg.det(frame[np.ix_(rows, range(k))]) for rows in subsets]
            assert row.tobytes() == np.array(want).tobytes()
    for m, scaled in enumerate(products):
        levels = linalg._minor_levels(*scaled, n)
        for k, (values, dens) in enumerate(levels, 1):
            exact = np.array([float(Fraction(x, dens[0])) for x in values[:, 0].tolist()])
            assert np.allclose(minors[k][m], exact, rtol=1e-12, atol=1e-12 * np.max(np.abs(exact)))


# -- SL(3) coordinates ---------------------------------------------------------


def test_sl3_coords_of_base_flags(pin3):
    g = oracles.matmul(
        one_param(pin3, "y", 1, Fraction(1)),
        one_param(pin3, "y", 2, Fraction(1)),
        one_param(pin3, "y", 1, Fraction(1)),
    )
    c = sl3_coords(g.entries)
    assert c.v == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    assert c.w == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert sl3_membership(c) is Membership.POSITIVE_PART


def test_sl3_residuals_vanish_on_flags(pin3, rng):
    params = sample_params(standard_word_w0(3), rng)
    c = sl3_coords(sample_positive(params, "lower").entries)
    res = sl3_residuals(c)
    assert res["sum_v"] == 0 and res["sum_w"] == 0
    assert res["orthogonality"] == 0


def test_sl3_membership_cases():
    inside = sl3_coords(oracles.rational_matrix([[1, 1, 1], [2, 1, 0], [1, 0, 0]]))
    assert sl3_membership(inside) is Membership.POSITIVE_PART
    from tnnflow.totpos import Sl3Coords

    outside = Sl3Coords(
        (Fraction(-1, 4), Fraction(1), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
        RATIONAL,
    )
    assert sl3_membership(outside) is Membership.OUTSIDE


def test_factorization_params_validation():
    word = standard_word_w0(3)
    with pytest.raises(ValueError):
        FactorizationParams(word, (Fraction(1),))  # wrong arity
    with pytest.raises(ValueError):
        FactorizationParams(
            word,
            (Fraction(1), Fraction(1), Fraction(1)),
            torus=(Fraction(0), Fraction(1)),
        )



@pytest.mark.parametrize("n", range(3, 7))
def test_early_exit_gives_the_full_walks_verdict_on_swapped_columns(n):
    """On every adjacent column swap of a group and a lower sample,
    :func:`is_tnn_matrix` gives the verdict of :func:`certify_minors`, which
    walks every minor, and its least minor is the least of ``all_minors``."""
    rng = np.random.default_rng([n, 37])
    word = standard_word_w0(n)
    for side in ("group", "lower"):
        g = sample_positive(sample_params(word, rng, group=side == "group"), side).entries
        for j in range(n - 1):
            swapped = g.copy()
            swapped[:, [j, j + 1]] = swapped[:, [j + 1, j]]
            minors = [v for _, _, v in oracles.all_minors(swapped)]
            verdict, least = certify_minors(swapped)
            assert is_tnn_matrix(swapped) is verdict is Positivity.NEITHER
            assert least == min(minors)


def test_scaled_product_reads_exact_parameters_and_refuses_floats():
    """Fraction, int and numpy int parameters (the torus included) multiply out
    alike; float and ``np.float64`` ones raise ``TypeError``."""
    word = standard_word_w0(3)
    t = (Fraction(1, 2), Fraction(3), Fraction(0), Fraction(5, 7), Fraction(1), Fraction(2, 9))
    torus = (Fraction(2), Fraction(1, 3))
    want = _scaled_product(FactorizationParams(word, t, torus), "group")
    for exact in ((t[0], 3, 0, t[3], 1, t[5]), (t[0], np.int64(3), np.int64(0), t[3], np.int32(1), t[5])):
        assert _scaled_product(FactorizationParams(word, exact, torus), "group") == want
    assert _scaled_product(FactorizationParams(word, t, (np.int64(2), torus[1])), "group") == want
    for bad in (0.5, np.float64(0.5)):
        with pytest.raises(TypeError):
            _scaled_product(FactorizationParams(word, (bad,) + t[1:], torus), "group")
        with pytest.raises(TypeError):
            _scaled_product(FactorizationParams(word, t, (bad, torus[1])), "group")


# -- the condensation certificate -------------------------------------------


def _solid_minors(a):
    """Every solid minor of ``a`` (contiguous rows and columns), each the ``oracles.det``
    of its submatrix: an oracle that shares no arithmetic with condensation."""
    n, m = a.shape
    return [
        oracles.det(a[i : i + k, j : j + k])
        for k in range(1, min(n, m) + 1)
        for i in range(n - k + 1)
        for j in range(m - k + 1)
    ]


@pytest.fixture
def walks(monkeypatch):
    """The calls of the all-minors walk, recorded while the test runs."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    real = totpos._least_minor
    monkeypatch.setattr(totpos, "_least_minor", spy)
    return calls


_SIDES = ("group", "lower", "upper")


def _assert_margin(a, verdict, least, margin, minors):
    """The certificate's margin is the least of the minors it names: the solid
    ones (TP only), all of them, or none, where a negative solid minor decides."""
    if minors == "solid":
        assert verdict is Positivity.TOTALLY_POSITIVE and margin == min(_solid_minors(a))
    elif minors == "all":
        assert margin == least
    else:
        assert minors is None and margin is None and verdict is Positivity.NEITHER
        assert min(_solid_minors(a)) < 0


@pytest.mark.parametrize("side", _SIDES)
@pytest.mark.parametrize("n", range(2, 8))
def test_solid_certificate_gives_the_all_minors_verdict(n, side, walks):
    """The certificate's verdict is ``certify_minors``' on interior, boundary
    (``zero_mask``), extreme (e^±20), column-swapped and rectangular samples.

    Its margin is the least solid minor (by ``oracles.det`` of each solid
    submatrix) where it says "solid", ``certify_minors``' least minor over
    all minors where it says "all", as on every lower and upper sample, and
    none where a negative solid minor decides NEITHER.  Group interiors,
    unitriangular interiors and column-swapped group samples, whose swapped
    columns hold a negative solid 2-minor, never reach the all-minors walk.
    """
    rng = np.random.default_rng([n, 41, _SIDES.index(side)])
    word = standard_word_w0(n)
    drawn = sample_params(word, rng, group=True)
    interior = sample_positive(drawn, side).entries
    mask = rng.choice(len(drawn.t), size=n, replace=False)
    boundary = sample_positive(sample_params(word, rng, group=True, zero_mask=mask), side).entries
    extreme = sample_positive(_extreme_params(word, rng, True), side).entries
    j = int(rng.integers(0, n - 1))
    swapped = interior.copy()
    swapped[:, [j, j + 1]] = swapped[:, [j + 1, j]]
    inside = Positivity.TOTALLY_POSITIVE if side == "group" else Positivity.TOTALLY_NONNEGATIVE
    # (matrix, its verdict where the test knows it, whether the solid minors decide it alone)
    cases = [
        (interior, inside, True),
        (extreme, inside, True),
        (boundary, Positivity.TOTALLY_NONNEGATIVE, False),
        (swapped, Positivity.NEITHER, side == "group"),
        (interior[:, 1:], None, False),
        (interior[:-1, :], None, False),
        (swapped[: n // 2 + 1, :], None, False),
    ]
    for a, expected, decided in cases:
        verdict, least = certify_minors(a)
        assert expected in (None, verdict)
        walked = len(walks)
        got, margin, minors = _certificate(*linalg._scaled_columns(a))
        assert got is verdict and is_tnn_matrix(a) is verdict
        _assert_margin(a, verdict, least, margin, minors)
        if decided:
            assert len(walks) == walked, "an interior sample reached the all-minors walk"
    if side != "group":
        assert _certificate(*linalg._scaled_columns(interior)) == (inside, 0, "all")


def test_a_unitriangular_matrix_with_one_zero_interval_minor_goes_to_the_full_walk(walks):
    """u = [[1, 0, 0], [a, 1, 0], [b, c, 1]] with b = a c: of the three interval
    minors a, b and a c - b, only the last is 0, so u is TNN but not in
    U-_{>0}; the certificate, on u and on its transpose, hands it to the walk.
    With b below a c every interval minor is positive, and no walk is made."""
    for b, walked in ((6, True), (5, False)):
        u = oracles.rational_matrix([[1, 0, 0], [2, 1, 0], [b, 3, 1]])
        for a in (u, u.T.copy()):
            assert certify_minors(a) == (Positivity.TOTALLY_NONNEGATIVE, 0)
            before = len(walks)
            assert is_tnn_matrix(a) is Positivity.TOTALLY_NONNEGATIVE
            assert _certificate(*linalg._scaled_columns(a)) == (Positivity.TOTALLY_NONNEGATIVE, 0, "all")
            assert len(walks) - before == (2 if walked else 0)


@pytest.mark.parametrize("n", range(3, 7))
def test_a_zero_parameter_sends_a_unitriangular_sample_to_the_full_walk(n, walks):
    """One zero parameter puts a unipotent sample on the boundary of U-_{>0}
    (or U+_{>0}): an interval minor vanishes, and the walk decides TNN."""
    rng = np.random.default_rng([n, 43])
    word = standard_word_w0(n)
    for side in ("lower", "upper"):
        for k in range(len(word)):
            a = sample_positive(sample_params(word, rng, zero_mask=[k]), side).entries
            before = len(walks)
            assert is_tnn_matrix(a) is Positivity.TOTALLY_NONNEGATIVE
            assert len(walks) == before + 1


def test_matrices_that_reach_the_full_walk_get_its_verdict(walks):
    """Where condensation meets a zero solid minor before a negative one, the
    verdict is the walk's: a NEITHER matrix whose only negative minor,
    Delta_{01, 02} = -1, is not solid; a group sample on the boundary, TNN and
    not triangular; and a column-swapped lower sample, whose zeros above the
    diagonal are no longer triangular."""
    rng = np.random.default_rng(47)
    word = standard_word_w0(4)
    lower = sample_positive(sample_params(word, rng), "lower").entries
    swapped = lower.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]
    cases = [
        (oracles.rational_matrix([[1, 0, 1], [1, 0, 0], [1, 1, 1]]), Positivity.NEITHER),
        (sample_positive(sample_params(word, rng, group=True, zero_mask=[0, 7]), "group").entries,
         Positivity.TOTALLY_NONNEGATIVE),
        (swapped, Positivity.NEITHER),
    ]
    assert min(_solid_minors(cases[0][0])) == 0
    for a, expected in cases:
        before = len(walks)
        assert is_tnn_matrix(a) is expected
        assert len(walks) == before + 1
        verdict, least = certify_minors(a)
        assert verdict is expected
        assert _certificate(*linalg._scaled_columns(a)) == (expected, least, "all")


_small_ints = st.integers(min_value=-1, max_value=3)


@st.composite
def _small_matrices(draw):
    """Small int matrices, many with zero solid minors; some lower or upper triangular."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_small_ints, min_size=m, max_size=m), min_size=n, max_size=n))
    a = oracles.rational_matrix(rows)
    shape = draw(st.sampled_from(["full", "lower", "upper"]))
    if shape != "full" and n == m:
        keep = np.tri(n, dtype=bool) if shape == "lower" else np.tri(n, dtype=bool).T
        a[~keep] = Fraction(0)
    return a


@settings(max_examples=300, deadline=None)
@given(_small_matrices())
@example(oracles.rational_matrix([[1] * 4] * 4))
@example(oracles.rational_matrix([[1, 0, 0], [1, 1, 0], [1, 1, 1]]))
@example(oracles.rational_matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
def test_zero_solid_minors_never_divide_by_zero(a):
    """Condensation divides by the level two below; a zero there must end the
    walk, never raise ``ZeroDivisionError``, and the verdict stays the oracle's."""
    verdict, least = certify_minors(a)
    got, margin, minors = _certificate(*linalg._scaled_columns(a))
    assert got is verdict and is_tnn_matrix(a) is verdict
    _assert_margin(a, verdict, least, margin, minors)
