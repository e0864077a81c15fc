"""Total positivity: factorizations, the all-minors oracle, flags carried by
matrices, and the SL(3) coordinate chart."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnnflow import linalg
from tnnflow.chevalley import FLOAT, RATIONAL, GroupElement, one_param, build_pinning
from tnnflow.totpos import (
    FactorizationParams,
    Membership,
    Positivity,
    ReducedWord,
    certify_minors,
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
    tp = linalg.rational_matrix([[2, 1], [1, 1]])
    tnn = linalg.rational_matrix([[1, 1], [0, 1]])
    neither = linalg.rational_matrix([[0, 1], [1, 0]])
    assert is_tnn_matrix(tp) is Positivity.TOTALLY_POSITIVE
    assert is_tnn_matrix(tnn) is Positivity.TOTALLY_NONNEGATIVE
    assert is_tnn_matrix(neither) is Positivity.NEITHER


def test_positivity_oracle_requires_exact_entries():
    with pytest.raises(TypeError):
        is_tnn_matrix(np.eye(2))


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
            assert linalg.det(g.entries) == 1
        with_torus = sample_params(word, rng, zero_mask=mask, group=True)
        without_torus = FactorizationParams(word, with_torus.t)
        for params in (with_torus, without_torus):
            g = sample_positive(params, "group")
            assert g.field == RATIONAL and linalg.det(g.entries) == 1
            assert not g.entries.flags.writeable


def test_zero_mask_lands_on_boundary():
    rng = np.random.default_rng(1)
    word = standard_word_w0(3)
    params = sample_params(word, rng, zero_mask=[0, 1, 2])
    g = sample_positive(params, "lower")
    assert np.equal(g.entries, linalg.rational_identity(3)).all()


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
        lower = params.t[ell:] if len(params.t) == 2 * ell else params.t
    else:
        lower = params.t[:ell]
    if side in ("lower", "group"):
        factors += [("y", i, t) for i, t in zip(word.letters, lower)]
    g = one_param(pin, *factors[0])
    for f in factors[1:]:
        g = g @ one_param(pin, *f)
    return g


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


# the least minor 2/9 is a 2-minor whose scaled int (2, over D**2 = 9) exceeds
# the least scaled 1-minor (1, over D = 3)
@example(a=np.array([[Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 3), 1]], dtype=object))
@example(a=np.array([[Fraction(1, 2), 3], [Fraction(1, 7), 1]], dtype=object))
@settings(max_examples=150, deadline=None)
@given(a=certify_cases())
def test_certificate_matches_leibniz_oracle(a, leibniz_det):
    values = _oracle_minors(a, leibniz_det)
    expected = _sign_rule(values)
    assert is_tnn_matrix(a) is expected
    verdict, least = certify_minors(a)
    assert verdict is expected and least == min(values) and type(least) is Fraction


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
    g = GroupElement(linalg.rational_identity(3), RATIONAL)
    for i, t in zip((1, 2, 1), tvals):
        g = g @ one_param(pin, "y", i, t)
    stab = one_param(pin, "x", 1, svals[0]) @ one_param(pin, "x", 2, svals[1])
    stab = stab @ one_param(pin, "coweight", 1, svals[2])
    got, want = sl3_coords((g @ stab).entries), sl3_coords(g.entries)
    assert got.field == want.field == RATIONAL
    assert got == want


@settings(max_examples=25, deadline=None)
@given(rational_params)
def test_sl3_coords_of_float_frame_track_exact_flag(tvals):
    """(v, w) read off a float matrix, or off its orthonormal frame, match the exact flag."""
    pin = build_pinning(3)
    g = GroupElement(linalg.rational_identity(3), RATIONAL)
    for i, t in zip((1, 2, 1), tvals):
        g = g @ one_param(pin, "y", i, t)
    exact = sl3_coords(g.entries).as_vector().astype(np.float64)
    floated = g.to_float().entries
    frame, _ = np.linalg.qr(floated)
    for m in (floated, frame):
        got = sl3_coords(m)
        assert got.field == FLOAT
        assert np.max(np.abs(got.as_vector() - exact)) <= 1e-12


# -- SL(3) coordinates ---------------------------------------------------------


def test_sl3_coords_of_base_flags(pin3):
    g = (
        one_param(pin3, "y", 1, Fraction(1))
        @ one_param(pin3, "y", 2, Fraction(1))
        @ one_param(pin3, "y", 1, Fraction(1))
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
    inside = sl3_coords(linalg.rational_matrix([[1, 1, 1], [2, 1, 0], [1, 0, 0]]))
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
