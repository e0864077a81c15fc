"""Chevalley generators, one-parameter subgroups, and the generator-sum
exponential, pinned against hand-computed matrices."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import exp_generator_sum, one_param
from tnnflow import chevalley, linalg
from tnnflow.chevalley import (
    FLOAT,
    RATIONAL,
    GroupElement,
    build_pinning,
    generator_sum,
    generator_sum_spectrum,
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


@pytest.mark.parametrize("n", [2, 4])
def test_pinning_refuses_an_index_outside_the_simple_roots(n):
    """Each accessor builds its int matrix for i = 1..n-1 and raises ``ValueError``
    for any other i: 0 and negative ones do not wrap around, and n does not run off."""
    pin = build_pinning(n)
    for i in pin.indices:
        e, f, h = pin.raising(i), pin.lowering(i), pin.coroot(i)
        assert e.dtype.kind == f.dtype.kind == h.dtype.kind == "i"
        assert np.array_equal(f, e.T) and np.abs(e).sum() == e[i - 1, i] == 1
        assert np.abs(h).sum() == 2 and h[i - 1, i - 1] == -h[i, i] == 1
    for i in (0, -1, n, n + 1):
        for accessor in (pin.raising, pin.lowering, pin.coroot):
            with pytest.raises(ValueError, match=f"index {i} out of range"):
                accessor(i)


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
        bracket(pin3.raising(1), pin3.lowering(2)), oracles.rational_zeros(3, 3)
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
    g = oracles.matmul(
        one_param(pin3, "y", 1, Fraction(1)),
        one_param(pin3, "y", 2, Fraction(1)),
        one_param(pin3, "y", 1, Fraction(1)),
    )
    assert linalg.to_float(g.entries).tolist() == [[1, 0, 0], [2, 1, 0], [1, 1, 1]]


def test_group_element_rejects_wrong_determinant():
    bad = oracles.rational_matrix([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        GroupElement(bad, RATIONAL)
    with pytest.raises(ValueError, match="determinant 1"):
        oracles.exact_element(bad)


def test_group_element_refuses_exact_entries_and_names_sample_positive():
    """The constructor builds binary64 elements only: the exact tag is refused with one
    line that names ``sample_positive``, the one way an exact element is made."""
    for entries in (oracles.rational_identity(3), np.eye(3, dtype=int), np.eye(3)):
        with pytest.raises(ValueError, match=r"^an exact group element .*sample_positive$"):
            GroupElement(entries, RATIONAL)


def test_group_element_tag_must_agree_with_its_dtype():
    """An exact element needs object or integer entries and a float one float entries:
    float entries made exact, and exact ones tagged float, raise ``TypeError``."""
    for entries in (np.eye(3), np.eye(3, dtype=np.float32)):
        with pytest.raises(TypeError, match="rational group element"):
            oracles.exact_element(entries)
    for entries in (oracles.rational_identity(3), np.eye(3, dtype=int), np.eye(3, dtype=np.uint8)):
        with pytest.raises(TypeError, match="float group element"):
            GroupElement(entries, FLOAT)
    assert oracles.exact_element(np.eye(3, dtype=int)).field == RATIONAL
    # integer entries are held as Python ints: a product past 2**63 does not wrap around
    g = oracles.exact_element(np.array([[1, 2**62], [0, 1]]))
    assert g.entries.dtype == object and oracles.matmul(g, g).entries[0, 1] == 2**63
    assert oracles.to_float(oracles.exact_element(oracles.rational_identity(3))).entries.dtype == np.float64
    assert GroupElement(linalg.to_float(oracles.rational_identity(3)), FLOAT).field == FLOAT


@pytest.mark.parametrize("n", [2, 3, 5])
def test_closed_constructions_have_determinant_one(n):
    """one_param and exact products skip the det check; the exact det is still 1."""
    pin = build_pinning(n)
    ts = (Fraction(3, 7), Fraction(-5, 2), Fraction(11))
    product = oracles.exact_element(oracles.rational_identity(n))
    for kind in ("x", "y", "coweight"):
        for i in pin.indices:
            for t in ts:
                g = one_param(pin, kind, i, t)
                assert g.field == RATIONAL and oracles.det(g.entries) == 1
                product = oracles.matmul(product, g)
                assert product.field == RATIONAL and oracles.det(product.entries) == 1
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


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_spectrum_is_computed_once_read_only(n):
    """Every call for one n hands back the same two arrays; a write to either raises
    ``ValueError``, and their bits are those of a fresh computation."""
    d, p = generator_sum_spectrum(n)
    again = generator_sum_spectrum(n)
    assert again[0] is d and again[1] is p
    for a in (d, p):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
    fresh = chevalley._spectrum.__wrapped__(n)
    assert [a.tobytes() for a in fresh] == [d.tobytes(), p.tobytes()]


def test_exp_group_law():
    a = exp_generator_sum(3, 0.7)
    b = exp_generator_sum(3, 1.4)
    ab = linalg.to_float(oracles.matmul(a, a).entries)
    assert np.max(np.abs(ab - linalg.to_float(b.entries))) < 1e-13


def test_matmul_promotes_field(pin3):
    g = one_param(pin3, "x", 1, Fraction(1))
    h = GroupElement(np.eye(3), FLOAT)
    assert oracles.matmul(g, h).field == FLOAT
    assert oracles.matmul(g, g).field == RATIONAL
