"""Chevalley generators, one-parameter subgroups, and the generator-sum
exponential, pinned against hand-computed matrices."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tnnflow import linalg
from tnnflow.chevalley import (
    FLOAT,
    RATIONAL,
    GroupElement,
    build_pinning,
    exp_generator_sum,
    generator_sum,
    generator_sum_spectrum,
    one_param,
)


def _exp_series(pinning, t: float, terms: int = 24) -> np.ndarray:
    """exp(t * generator_sum) by a Taylor series with scaling and squaring.

    Scales ``t*tau`` down by a power of two until its 1-norm is below 1/2,
    sums the truncated series by Horner's rule, then squares back up: a route
    that shares nothing with the spectral one.
    """
    a = float(t) * linalg.to_float(generator_sum(pinning))
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0 else 0)
    a = a / (2.0**squarings)
    n = pinning.n
    result = np.eye(n)
    for k in range(terms, 0, -1):
        result = np.eye(n) + (a / k) @ result
    for _ in range(squarings):
        result = result @ result
    return result


def test_generators_sl3(pin3):
    assert linalg.to_float(pin3.raising(1)).tolist() == [
        [0, 1, 0],
        [0, 0, 0],
        [0, 0, 0],
    ]
    assert linalg.to_float(pin3.lowering(2)).tolist() == [
        [0, 0, 0],
        [0, 0, 0],
        [0, 1, 0],
    ]
    assert linalg.to_float(pin3.coroot(1)).tolist() == [
        [1, 0, 0],
        [0, -1, 0],
        [0, 0, 0],
    ]


def test_generator_sum_is_jacobi(pin3, pin4):
    tau3 = linalg.to_float(generator_sum(pin3))
    assert tau3.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    tau4 = linalg.to_float(generator_sum(pin4))
    assert np.allclose(tau4, tau4.T)
    assert np.count_nonzero(tau4) == 6


def test_serre_style_relations(pin3):
    def bracket(a, b):
        return a @ b - b @ a

    cartan = [[2, -1], [-1, 2]]  # Cartan matrix of A2
    for i in (1, 2):
        for j in (1, 2):
            got = bracket(pin3.coroot(i), pin3.raising(j))
            want = cartan[i - 1][j - 1] * pin3.raising(j)
            assert np.equal(got, want).all()
    for i in (1, 2):
        got = bracket(pin3.raising(i), pin3.lowering(i))
        assert np.equal(got, pin3.coroot(i)).all()
    # off-diagonal e/f commute
    assert np.equal(
        bracket(pin3.raising(1), pin3.lowering(2)), linalg.rational_zeros(3, 3)
    ).all()


def test_one_param_matrices(pin3):
    x = one_param(pin3, "x", 1, Fraction(2))
    assert linalg.to_float(x.entries).tolist() == [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
    y = one_param(pin3, "y", 2, Fraction(1, 3))
    assert y.entries[2, 1] == Fraction(1, 3)
    t = one_param(pin3, "coweight", 1, Fraction(3))
    assert [t.entries[k, k] for k in range(3)] == [3, Fraction(1, 3), 1]
    with pytest.raises(ValueError):
        one_param(pin3, "coweight", 1, Fraction(0))


def test_one_param_refuses_float_parameter(pin3):
    for t in (0.5, np.float64(0.5)):
        for kind in ("x", "y", "coweight"):
            with pytest.raises(TypeError):
                one_param(pin3, kind, 1, t)
    assert one_param(pin3, "x", 2, np.int64(3)).entries[1, 2] == 3


def test_one_param_product_pinned(pin3):
    g = (
        one_param(pin3, "y", 1, Fraction(1))
        @ one_param(pin3, "y", 2, Fraction(1))
        @ one_param(pin3, "y", 1, Fraction(1))
    )
    assert linalg.to_float(g.entries).tolist() == [[1, 0, 0], [2, 1, 0], [1, 1, 1]]


def test_group_element_rejects_wrong_determinant():
    bad = linalg.rational_matrix([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        GroupElement(bad, RATIONAL)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_closed_constructions_have_determinant_one(n):
    """one_param and exact products skip the det check; the exact det is still 1."""
    pin = build_pinning(n)
    ts = (Fraction(3, 7), Fraction(-5, 2), Fraction(11))
    product = GroupElement(linalg.rational_identity(n), RATIONAL)
    for kind in ("x", "y", "coweight"):
        for i in pin.indices:
            for t in ts:
                g = one_param(pin, kind, i, t)
                assert g.field == RATIONAL and linalg.det(g.entries) == 1
                product = product @ g
                assert product.field == RATIONAL and linalg.det(product.entries) == 1
    assert not product.entries.flags.writeable


def test_exp_sl2_closed_form():
    # for n = 2 the sum is [[0,1],[1,0]] and exp(t tau) = cosh/sinh
    for t in (0.3, 1.0, 2.5):
        g = linalg.to_float(exp_generator_sum(2, t).entries)
        want = [[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]]
        assert np.allclose(g, want, atol=1e-14)


def test_exp_sl3_closed_form(pin3):
    # tau^3 = 2 tau, so exp(tau) = I + sinh(r)/r tau + (cosh(r)-1)/2 tau^2
    # with r = sqrt(2)
    tau = linalg.to_float(generator_sum(pin3))
    r = math.sqrt(2.0)
    want = (
        np.eye(3)
        + (math.sinh(r) / r) * tau
        + ((math.cosh(r) - 1.0) / 2.0) * (tau @ tau)
    )
    got = linalg.to_float(exp_generator_sum(3, 1.0).entries)
    assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("t", [-5.0, -1.0, 0.0, 0.25, 1.0, 5.0])
def test_exp_two_routes_agree(pin4, t):
    """Spectral evaluation against an independent scaling-and-squaring series."""
    a = linalg.to_float(exp_generator_sum(4, t).entries)
    assert np.max(np.abs(a - _exp_series(pin4, t))) < 1e-11


@pytest.mark.parametrize("n", [1, 0, -3])
def test_spectrum_of_tau_refuses_n_below_2(n):
    """The spectrum takes n itself, and refuses it where no SL(n) exists, as build_pinning does."""
    for build in (generator_sum_spectrum, lambda n: exp_generator_sum(n, 1.0), build_pinning):
        with pytest.raises(ValueError, match="n >= 2"):
            build(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_closed_form_spectrum_matches_eigh(n):
    """The closed-form (d, P) of the path graph against ``np.linalg.eigh``."""
    pin = build_pinning(n)
    d, p = generator_sum_spectrum(n)
    tau = linalg.to_float(generator_sum(pin))
    w, _ = np.linalg.eigh(tau)
    assert np.max(np.abs(d - w[::-1])) < 1e-14
    assert np.all(np.diff(d) < 0)  # simple spectrum, top first
    assert np.linalg.norm(tau @ p - p * d) < 1e-14
    assert np.linalg.norm(p.T @ p - np.eye(n)) < 1e-14
    assert np.all(p[:, 0] > 0)  # the top eigenvector is positive (Perron)


def test_exp_group_law():
    a = exp_generator_sum(3, 0.7)
    b = exp_generator_sum(3, 1.4)
    ab = linalg.to_float((a @ a).entries)
    assert np.max(np.abs(ab - linalg.to_float(b.entries))) < 1e-13


def test_matmul_promotes_field(pin3):
    g = one_param(pin3, "x", 1, Fraction(1))
    h = GroupElement(np.eye(3), FLOAT)
    assert (g @ h).field == FLOAT
    assert (g @ g).field == RATIONAL
