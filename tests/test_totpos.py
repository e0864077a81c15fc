"""Total positivity: factorizations, the all-minors oracle, canonical flag
forms, and the SL(3) coordinate chart."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflow import linalg
from tnnflow.chevalley import FLOAT, RATIONAL, GroupElement, one_param, build_pinning
from tnnflow.totpos import (
    FactorizationParams,
    FlagPoint,
    Membership,
    Positivity,
    ReducedWord,
    certify_minors,
    flag_of,
    is_tnn_matrix,
    sample_params,
    sample_positive,
    sl3_coords,
    sl3_flag_from_coords,
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


def test_zero_mask_lands_on_boundary():
    rng = np.random.default_rng(1)
    word = standard_word_w0(3)
    params = sample_params(word, rng, zero_mask=[0, 1, 2])
    g = sample_positive(params, "lower")
    assert np.equal(g.entries, linalg.rational_identity(3)).all()


def _oracle_minors(a):
    n = a.shape[0]
    return [
        linalg.minor(a, rows, cols)
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
def test_verdict_matches_sign_rule_over_oracle_minors(n):
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
        values = _oracle_minors(a)
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
    params = sample_params(word, rng, group=group, field=FLOAT)
    got, want = sample_positive(params, side), _dense_product(params, side)
    assert got.field == want.field == FLOAT
    scale = float(np.max(np.abs(want.entries)))
    assert float(np.max(np.abs(got.entries - want.entries))) <= 1e-14 * scale


def test_sample_positive_rejects_unknown_side():
    params = sample_params(standard_word_w0(3), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_positive(params, "middle")


# -- canonical flag form ------------------------------------------------------


def test_flag_canonical_form_pinned(pin3):
    g = (
        one_param(pin3, "y", 1, Fraction(1))
        @ one_param(pin3, "y", 2, Fraction(1))
        @ one_param(pin3, "y", 1, Fraction(1))
    )
    flag = flag_of(g)
    assert linalg.to_float(flag.mat).tolist() == [
        [1, 1, 1],
        [2, 1, 0],
        [1, 0, 0],
    ]
    assert flag.pivot_rows == (2, 1, 0)
    assert flag.dims == (1, 2)


def test_flag_of_identity_and_J(pin3):
    e = GroupElement(linalg.rational_identity(3), RATIONAL)
    complete = flag_of(e)
    assert complete.pivot_rows == (0, 1, 2)
    partial = flag_of(e, J={2})
    assert partial.dims == (1,)
    assert partial.J == frozenset({2})


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
    assert flag_of(g @ stab) == flag_of(g)


@settings(max_examples=25, deadline=None)
@given(rational_params)
def test_flag_float_path_tracks_exact_path(tvals):
    pin = build_pinning(3)
    g = GroupElement(linalg.rational_identity(3), RATIONAL)
    for i, t in zip((1, 2, 1), tvals):
        g = g @ one_param(pin, "y", i, t)
    exact = flag_of(g)
    floated = flag_of(g.to_float())
    assert exact.approx_eq(floated, tol=1e-9)


# -- SL(3) coordinates ---------------------------------------------------------


def test_sl3_coords_of_base_flags(pin3):
    g = (
        one_param(pin3, "y", 1, Fraction(1))
        @ one_param(pin3, "y", 2, Fraction(1))
        @ one_param(pin3, "y", 1, Fraction(1))
    )
    c = sl3_coords(flag_of(g))
    assert c.v == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    assert c.w == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert sl3_membership(c) is Membership.POSITIVE_PART


def test_sl3_residuals_vanish_on_flags(pin3, rng):
    params = sample_params(standard_word_w0(3), rng)
    c = sl3_coords(flag_of(sample_positive(params, "lower")))
    res = sl3_residuals(c)
    assert res["sum_v"] == 0 and res["sum_w"] == 0
    assert res["orthogonality"] == 0


@pytest.mark.parametrize("seed", range(4))
def test_sl3_roundtrip_exact(seed):
    rng = np.random.default_rng(seed)
    params = sample_params(standard_word_w0(3), rng)
    flag = flag_of(sample_positive(params, "lower"))
    coords = sl3_coords(flag)
    assert sl3_flag_from_coords(coords) == flag


def test_sl3_membership_cases():
    inside = sl3_coords(
        flag_of(linalg.rational_matrix([[1, 1, 1], [2, 1, 0], [1, 0, 0]]))
    )
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
