"""Highest-weight modules, the projective embedding, and the eigenbasis chart."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflow import linalg
from tnnflow.chevalley import FLOAT, RATIONAL, GroupElement, build_pinning, one_param
from tnnflow.embedding import (
    ChartOverflowError,
    build_rep,
    chart_coords,
    chart_line,
    compound_matrix,
    eigenchart,
    fundamental_rep,
    lambda_for,
    line_of,
    rep_matrix,
    weyl_dim,
)
from tnnflow.totpos import sample_params, sample_positive, standard_word_w0


def test_lambda_for_places_ones_off_J():
    assert lambda_for(3, ()).coeffs == (1, 1)
    assert lambda_for(3, (2,)).coeffs == (1, 0)
    assert lambda_for(4, (2,)).coeffs == (1, 0, 1)
    assert lambda_for(4, (1, 3)).coeffs == (0, 1, 0)
    with pytest.raises(ValueError):
        lambda_for(3, (3,))


def test_weyl_dim_formula():
    # wedge powers of the defining representation
    for n in (2, 3, 4, 5):
        for k in range(1, n):
            assert weyl_dim(lambda_for(n, tuple(j for j in range(1, n) if j != k))) == math.comb(n, k)
    assert weyl_dim(lambda_for(3, ())) == 8  # adjoint of sl3
    assert weyl_dim(lambda_for(4, (2,))) == 15  # adjoint of sl4
    assert weyl_dim(lambda_for(4, ())) == 64


def test_fundamental_rep_is_wedge_power():
    rep = fundamental_rep(4, 2)
    assert rep.dim == 6
    assert rep.labels == ("12", "13", "14", "23", "24", "34")
    tau = linalg.to_float(rep.generator_sum())
    assert np.allclose(tau, tau.T)


@pytest.mark.parametrize(
    "n,J",
    [(3, ()), (3, (2,)), (3, (1,)), (4, (2,)), (4, (1, 3)), (4, (1, 2)), (4, ()), (5, (2, 3)), (5, (1, 4))],
)
def test_module_dims_match_weyl_oracle(n, J):
    weight = lambda_for(n, J)
    rep = build_rep(weight)
    assert rep.dim == weyl_dim(weight)


def test_sl3_complete_module_shape(rep3):
    assert rep3.dim == 8
    assert rep3.ambient_dim == 9
    assert rep3.factors == (1, 2)
    # the ambient generator sum is symmetric (E^T = F there); the module
    # basis is echelon, not orthonormal, so symmetry is only ambient
    big = rep3.ambient_generator_sum()
    assert np.max(np.abs(big - big.T)) == 0


def test_highest_vector_coordinates(rep3, pin3):
    """psi of the identity flag pinned against the hand computation."""
    e = GroupElement(linalg.rational_identity(3), RATIONAL)
    line = line_of(rep3, e)
    vec = np.asarray(line.vec)
    top = vec[rep3.highest_index]
    assert top != 0
    # exactness: identity flag gives rational coordinates
    assert all(isinstance(x, Fraction) for x in vec)


def _exp_nilpotent(op, t, vec):
    """exp(t * op) applied to vec by its terminating series (op nilpotent)."""
    out, term = vec, vec
    for k in itertools.count(1):
        term = (op @ term) * (t / k)
        if not any(x != 0 for x in term):
            return out
        out = out + term


def test_line_of_agrees_between_params_and_matrix(rng):
    """The compound route equals the factors acting on the highest vector.

    The oracle applies exp(t F_i), the torus and exp(t E_i) to the highest
    basis vector in module coordinates, through the exact ``rep.f``,
    ``rep.h`` and ``rep.e`` matrices, in the order of ``sample_positive``.
    """
    for n, J in ((3, ()), (4, (2,)), (5, (2, 3))):
        rep = build_rep(lambda_for(n, J))
        word = standard_word_w0(n)
        ell = len(word)
        for side in ("lower", "group"):
            params = sample_params(word, rng, group=(side == "group"))
            vec = linalg.rational_zeros(rep.dim, 1)[:, 0]
            vec[rep.highest_index] = Fraction(1)
            # the lower factor takes the last ell parameters on either side
            for i, t in reversed(list(zip(word.letters, params.t[-ell:]))):
                vec = _exp_nilpotent(rep.f[i], t, vec)
            if side == "group":
                for i, s in zip(range(1, n), params.torus):
                    diag = [s ** int(rep.h[i][r, r]) for r in range(rep.dim)]
                    vec = vec * np.array(diag, dtype=object)
                for i, t in reversed(list(zip(word.letters, params.t[:ell]))):
                    vec = _exp_nilpotent(rep.e[i], t, vec)
            got = line_of(rep, params, side)
            assert got.field == RATIONAL
            assert np.equal(got.vec, vec).all(), (n, J, side)


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (4, ()), (5, (2, 3))])
def test_exact_line_of_matches_full_outer_product(n, J, leibniz_det):
    """The pivot-only exact route equals the full ambient tensor, read at the pivots.

    The oracle builds each factor's compound column from permutation-sum
    minors on the leading columns, takes the whole outer product over the
    ambient space, and only then reads ``rep.pivot_cols``.
    """
    rep = build_rep(lambda_for(n, J))
    rng = np.random.default_rng([n, len(J), 3])
    for side in ("lower", "group"):
        params = sample_params(standard_word_w0(n), rng, group=(side == "group"))
        g = sample_positive(params, side)
        big = np.ones(1, dtype=object)
        for k in rep.factors:
            col = [leibniz_det(g.entries[np.ix_(rows, range(k))]) for rows in itertools.combinations(range(n), k)]
            big = np.multiply.outer(big, np.array(col, dtype=object)).reshape(-1)
        want = big[list(rep.pivot_cols)]
        for got in (line_of(rep, params, side), line_of(rep, g)):
            assert got.field == RATIONAL
            assert all(type(x) is Fraction for x in got.vec)
            assert np.equal(got.vec, want).all(), (n, J, side)


def test_line_of_projective_invariance(rep3, pin3):
    g = one_param(pin3, "y", 1, Fraction(2)) @ one_param(pin3, "y", 2, Fraction(3))
    h = g @ one_param(pin3, "x", 1, Fraction(5))  # same flag, other representative
    a, b = line_of(rep3, g), line_of(rep3, h)
    va, vb = np.asarray(a.vec), np.asarray(b.vec)
    k = next(i for i, x in enumerate(va) if x != 0)
    assert np.equal(va * vb[k], vb * va[k]).all()


small_fracs = st.fractions(min_value="1/9", max_value=9, max_denominator=9)


@settings(max_examples=20, deadline=None)
@given(st.lists(small_fracs, min_size=6, max_size=6))
def test_compound_matrix_multiplicative(vals):
    """Cauchy-Binet: the k-th compound is a homomorphism."""
    pin = build_pinning(4)
    word = standard_word_w0(4)
    g = GroupElement(linalg.rational_identity(4), RATIONAL)
    h = GroupElement(linalg.rational_identity(4), RATIONAL)
    for i, (letter, t) in enumerate(zip(word.letters, vals)):
        if i % 2:
            g = g @ one_param(pin, "y", letter, t)
        else:
            h = h @ one_param(pin, "x", letter, t)
    for k in (1, 2, 3):
        lhs = compound_matrix(g @ h, k)
        rhs = compound_matrix(g, k) @ compound_matrix(h, k)
        assert np.equal(lhs, rhs).all()


def test_rep_matrix_is_homomorphism(rep3, pin3):
    g = one_param(pin3, "y", 1, Fraction(1, 2))
    h = one_param(pin3, "x", 2, Fraction(3))
    lhs = rep_matrix(rep3, g @ h)
    rhs = rep_matrix(rep3, g) @ rep_matrix(rep3, h)
    assert np.equal(lhs, rhs).all()


def test_eigenchart_spectrum(chart3):
    mu = np.asarray(chart3.mu)
    assert mu.shape == (8,)
    assert all(mu[i] >= mu[i + 1] - 1e-12 for i in range(7))
    # tau is traceless, eigenvalues come in +/- pairs
    assert abs(mu.sum()) < 1e-12
    assert abs(mu[0] - 2.0 * math.sqrt(2.0)) < 1e-12
    assert abs(chart3.gap - math.sqrt(2.0)) < 1e-12


def test_eigenchart_42(chart42):
    mu = np.asarray(chart42.mu)
    assert abs(mu[0] - (1.0 + math.sqrt(5.0))) < 1e-12
    assert mu[0] > mu[1] + 0.5


def test_chart_roundtrip(chart3, rng):
    p = rng.normal(size=chart3.ncoords)
    line = chart_line(chart3, p)
    q = chart_coords(chart3, line)
    assert np.max(np.abs(p - q)) < 1e-10


def test_chart_overflow():
    rep = build_rep(lambda_for(3, ()))
    chart = eigenchart(rep)
    # a line orthogonal to the top eigenvector has no chart coordinates
    vec = chart.r_inv @ chart.vectors[:, 3]
    from tnnflow.embedding import LineCoords

    with pytest.raises(ChartOverflowError):
        chart_coords(chart, LineCoords(vec, FLOAT))


def test_chart_coords_of_tnn_flags_are_finite(chart3, rng):
    for _ in range(5):
        params = sample_params(standard_word_w0(3), rng)
        p = chart_coords(chart3, line_of(chart3.rep, params, "lower"))
        assert np.all(np.isfinite(p))
