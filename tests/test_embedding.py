"""Highest-weight modules, the projective embedding, and the eigenbasis chart."""

import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from tnnflow import linalg
from tnnflow.chevalley import (
    FLOAT,
    RATIONAL,
    GroupElement,
    exp_generator_sum,
    generator_sum_spectrum,
    one_param,
)
from tnnflow import embedding
from tnnflow.embedding import (
    ChartOverflowError,
    _tensor_moves,
    build_rep,
    chart_coords,
    chart_line,
    eigenchart,
    lambda_for,
    line_of,
    weyl_dim,
)
from tnnflow.totpos import FactorizationParams, sample_params, sample_positive, standard_word_w0


def _generator_moves(rep):
    """E_i and F_i on the ambient tensor product of ``rep``, as index moves.

    Built from their definition: E_i replaces i+1 by i and F_i replaces i by
    i+1 in one factor subset, with structure constant +1.  ``e[i][a]`` lists
    the flat indices that E_i sends ambient basis vector ``a`` to, one per
    factor it acts on; ambient basis vectors are tuples of sorted factor
    subsets, flattened with the first factor varying slowest.
    """
    subsets = [list(itertools.combinations(range(1, rep.n + 1), k)) for k in rep.factors]
    index = {sets: a for a, sets in enumerate(itertools.product(*subsets))}

    def moves(old, new):
        return tuple(
            tuple(
                index[sets[:j] + (tuple(sorted(set(s) - {old} | {new})),) + sets[j + 1 :]]
                for j, s in enumerate(sets)
                if old in s and new not in s
            )
            for sets in index
        )

    e = {i: moves(i + 1, i) for i in range(1, rep.n)}
    f = {i: moves(i, i + 1) for i in range(1, rep.n)}
    return e, f


def _tau_times(rep, x):
    """sum_i E_i + F_i applied to the rows of x (one per ambient index), through
    the index moves of :func:`_generator_moves`."""
    out = np.zeros_like(x)
    e, f = _generator_moves(rep)
    for moves in (*e.values(), *f.values()):
        for a, targets in enumerate(moves):
            out[list(targets)] += x[a]
    return out


def _ambient_tau(rep):
    """The generator sum on the ambient space, as a dense float matrix."""
    return _tau_times(rep, np.eye(rep.ambient_dim))


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
    rep = build_rep(lambda_for(4, (1, 3)))
    assert rep.dim == rep.ambient_dim == 6
    assert rep.pivot_cols == tuple(range(6))
    assert rep.rows == tuple({a: 1} for a in range(6))
    tau = _ambient_tau(rep)
    assert np.array_equal(tau, tau.T)


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (4, (1, 3)), (5, (2, 3))])
def test_tensor_moves_match_the_definition(n, J):
    """The F moves and weights that ``build_rep`` lowers with are the ones built
    in the tests from their definition."""
    rep = build_rep(lambda_for(n, J))
    f, weights = _tensor_moves(n, rep.factors)
    assert f == _generator_moves(rep)[1]
    assert [list(w) for w in weights] == _ambient_weights(n, rep.factors)


@pytest.mark.parametrize(
    "n,J",
    [
        (3, ()), (3, (2,)), (3, (1,)), (4, (2,)), (4, (1, 3)), (4, (1, 2)), (4, ()),
        (5, (2, 3)), (5, (1, 4)), (5, ()), (6, (1, 5)),
    ],
)
def test_module_dims_match_weyl_oracle(n, J):
    weight = lambda_for(n, J)
    rep = build_rep(weight)
    assert rep.dim == weyl_dim(weight)


@pytest.mark.slow
def test_complete_flag_module_of_sl6_builds():
    """(6, ()), dim 32,768 inside an ambient space of 162,000: deselected by
    default, run with ``pytest -m slow``."""
    weight = lambda_for(6, ())
    assert build_rep(weight).dim == weyl_dim(weight) == 32768


def _invariance_residuals(rep):
    """Each E_i and F_i applied to each basis row, minus its expansion in the basis.

    Each row is read as its reduced-echelon row, ``Fraction(x, row[pivot])``.
    The image of a row lies in the module iff it equals the combination of
    basis rows read off at its pivots.  Yields the nonzero residuals: none
    means the span is a submodule.
    """
    rows = {p: {a: Fraction(x, row[p]) for a, x in row.items()} for p, row in zip(rep.pivot_cols, rep.rows)}
    e, f = _generator_moves(rep)
    for moves in (*e.values(), *f.values()):
        for row in rows.values():
            image: dict = {}
            for a, x in row.items():
                for b in moves[a]:
                    image[b] = image.get(b, 0) + x
            residual = dict(image)
            for q, x in image.items():
                for a, y in rows.get(q, {}).items():
                    residual[a] = residual.get(a, 0) - x * y
            if any(residual.values()):
                yield residual


@pytest.mark.parametrize(
    "n,J",
    [
        (3, ()), (3, (2,)), (3, (1,)), (4, (2,)), (4, (1,)), (4, (1, 3)), (4, (1, 2)), (4, ()),
        (5, (2, 3)), (5, (1, 4)), (5, ()), (6, (1, 5)),
    ],
)
def test_module_is_invariant_under_every_generator(n, J):
    """The lowering closure is a submodule, checked exactly on every module the
    tests build: every E_i and F_i maps the span of the rows into itself."""
    rep = build_rep(lambda_for(n, J))
    assert next(_invariance_residuals(rep), None) is None


def test_invariance_oracle_catches_a_foreign_row():
    """At (3, ()) the zero weight space has the echelon rows {2: 1, 6: -1} and
    {4: 1, 6: 1}; a span with the basis vector e_2 in place of the first is not
    a submodule, and the oracle must say so."""
    rep = build_rep(lambda_for(3, ()))
    assert rep.rows[2] == {2: 1, 6: -1}
    broken = dataclasses.replace(rep, rows=(*rep.rows[:2], {2: 1}, *rep.rows[3:]))
    assert next(_invariance_residuals(broken), None) is not None


def test_build_rep_refuses_a_closure_of_the_wrong_dimension(monkeypatch):
    monkeypatch.setattr(embedding, "weyl_dim", lambda weight: 9)
    with pytest.raises(AssertionError, match="closure dimension 8 != Weyl dimension 9"):
        build_rep(lambda_for(3, ()))


# sha256 of the pivots and the sparse reduced-echelon rows, entries as "p/q";
# recorded from the dense reduced-echelon basis these rows replaced, and
# (6, {1,5}) from the Fraction echelon that the integer one replaced
_BASIS_HASHES = {
    (4, (1, 3)): "1f42a3e94a5bfb8fc7381bfb5434629372d3ea5fcc2a3967909f535a28755054",
    (5, (2, 3)): "65f95afb1a7d1c5b0cec26e19681d9de9360e4620172c3d72e39e3f400b87fa3",
    (5, (1, 4)): "f2e5b494cd5ea4c19047e0d32c6e26a86e2194eaca2fb528e0794ff650402ce9",
    (5, ()): "076cef8c556936ffb36ab00207400d359d7bd7de664a6192d438c5be5c94050b",
    (6, (1, 5)): "1a37a2c02bc82f1e4788decae71f79c5e96b22d482ebad899d5b798fa291cfe4",
}


@pytest.mark.parametrize("n,J", list(_BASIS_HASHES), ids=["n4-J13", "n5-J23", "n5-J14", "n5-J", "n6-J15"])
def test_module_basis_is_pinned(n, J):
    rep = build_rep(lambda_for(n, J))
    assert all(row[p] > 0 and math.gcd(*row.values()) == 1 for p, row in zip(rep.pivot_cols, rep.rows))
    rows = [
        [[c, f"{x.numerator}/{x.denominator}"] for c, x in sorted((c, Fraction(x, row[p])) for c, x in row.items())]
        for p, row in zip(rep.pivot_cols, rep.rows)
    ]
    payload = json.dumps([list(rep.pivot_cols), rows], separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == _BASIS_HASHES[n, J]


def test_sl3_complete_module_shape(rep3):
    assert rep3.dim == 8
    assert rep3.ambient_dim == 9
    assert rep3.factors == (1, 2)
    # the ambient generator sum is symmetric (E^T = F there); the module
    # basis is echelon, not orthonormal, so symmetry is only ambient
    big = _ambient_tau(rep3)
    assert np.max(np.abs(big - big.T)) == 0


def test_highest_vector_coordinates(rep3, pin3):
    """psi of the identity flag is the highest vector itself, exactly e_0."""
    e = GroupElement(linalg.rational_identity(3), RATIONAL)
    line = line_of(rep3, e)
    assert rep3.pivot_cols[0] == 0  # the highest vector is the first pivot
    want = np.array([Fraction(1)] + [Fraction(0)] * (rep3.dim - 1), dtype=np.float64)
    assert line.dtype == np.float64
    assert np.equal(line, want).all()


def _exp_nilpotent(moves, t, vec):
    """exp(t * X) on a sparse ambient vector, X a generator given by its index
    moves (every structure constant +1), by its terminating series."""
    out, term = dict(vec), vec
    for k in itertools.count(1):
        image: dict = {}
        for a, x in term.items():
            for b in moves[a]:
                image[b] = image.get(b, 0) + x * t / k
        term = {b: x for b, x in image.items() if x != 0}
        if not term:
            return out
        for b, x in term.items():
            out[b] = out.get(b, 0) + x


def _ambient_weights(n, factors):
    """The eigenvalues of H_1 .. H_{n-1} on each flat ambient index, from the
    sorted k-subsets of each wedge factor (the first factor varies slowest)."""
    subsets = [list(itertools.combinations(range(1, n + 1), k)) for k in factors]
    return [
        [sum((i in s) - (i + 1 in s) for s in sets) for i in range(1, n)]
        for sets in itertools.product(*subsets)
    ]


def test_line_of_agrees_between_params_and_matrix(rng):
    """The compound route equals the factors acting on the highest vector.

    The oracle applies exp(t F_i), the torus and exp(t E_i) to the ambient
    highest vector (flat index 0) through the index moves of F_i and E_i
    (:func:`_generator_moves`), in the order of ``sample_positive``, and reads the
    result at ``rep.pivot_cols``.  The torus scales each ambient basis vector
    by s_i to the power of its H_i-eigenvalue.  The exact oracle, rounded
    once to binary64, must equal the line bit for bit.
    """
    for n, J in ((3, ()), (4, (2,)), (5, (2, 3))):
        rep = build_rep(lambda_for(n, J))
        e, f = _generator_moves(rep)
        weights = _ambient_weights(n, rep.factors)
        word = standard_word_w0(n)
        ell = len(word)
        for side in ("lower", "group"):
            params = sample_params(word, rng, group=(side == "group"))
            vec = {0: Fraction(1)}
            # the lower factor takes the last ell parameters on either side
            for i, t in reversed(list(zip(word.letters, params.t[-ell:]))):
                vec = _exp_nilpotent(f[i], t, vec)
            if side == "group":
                vec = {
                    a: x * math.prod(s ** w for s, w in zip(params.torus, weights[a]))
                    for a, x in vec.items()
                }
                for i, t in reversed(list(zip(word.letters, params.t[:ell]))):
                    vec = _exp_nilpotent(e[i], t, vec)
            want = np.array([vec.get(p, Fraction(0)) for p in rep.pivot_cols], dtype=np.float64)
            got = line_of(rep, params, side)
            assert got.dtype == np.float64
            assert np.equal(got, want).all(), (n, J, side)


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (4, ()), (5, (2, 3))])
def test_exact_line_of_matches_full_outer_product(n, J, leibniz_det):
    """The pivot read-off equals the full ambient tensor, read at the pivots.

    The oracle builds each factor's compound column minor by minor on the
    leading columns, takes the whole outer product over the ambient space,
    and only then reads ``rep.pivot_cols``.  Exact minors are permutation
    sums, and the exact flag's line must equal their product rounded once to
    binary64; float minors are one ``np.linalg.det`` each, and the float line
    must match bit for bit, on a float flag and on one flowed by exp(tau).
    """
    rep = build_rep(lambda_for(n, J))
    rng = np.random.default_rng([n, len(J), 3])
    exp_tau = exp_generator_sum(n, 1.0).entries

    def outer_at_pivots(rows_det, dtype):
        big = np.ones(1, dtype=dtype)
        for k in rep.factors:
            col = [rows_det(list(rows), k) for rows in itertools.combinations(range(n), k)]
            big = np.multiply.outer(big, np.array(col, dtype=dtype)).reshape(-1)
        return big[list(rep.pivot_cols)]

    for side in ("lower", "group"):
        params = sample_params(standard_word_w0(n), rng, group=(side == "group"))
        g = sample_positive(params, side)
        exact = outer_at_pivots(lambda rows, k: leibniz_det(g.entries[np.ix_(rows, range(k))]), object)
        want = np.array(exact, dtype=np.float64)
        for got in (line_of(rep, params, side), line_of(rep, g)):
            assert got.dtype == np.float64
            assert np.equal(got, want).all(), (n, J, side)
        for h in (g.to_float(), GroupElement(exp_tau @ g.to_float().entries, FLOAT)):
            want = outer_at_pivots(lambda rows, k: np.linalg.det(h.entries[np.ix_(rows, range(k))]), np.float64)
            got = line_of(rep, h)
            assert got.dtype == np.float64
            assert np.array_equal(got, want), (n, J, side)


def test_line_of_projective_invariance(rep3, pin3):
    """g x_1(5) is another representative of the flag of g: adding a multiple
    of the first column to the second leaves every leading minor as it is, so
    the two lines are equal, not just proportional."""
    g = one_param(pin3, "y", 1, Fraction(2)) @ one_param(pin3, "y", 2, Fraction(3))
    h = g @ one_param(pin3, "x", 1, Fraction(5))
    a, b = line_of(rep3, g), line_of(rep3, h)
    assert np.any(a != 0)
    assert np.equal(a, b).all()


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (4, (1,))])
def test_exact_line_of_is_correctly_rounded_at_extreme_parameters(n, J, leibniz_det):
    """Parameters from about 1e-30 to 1e30: the exact flag's line equals the
    exact coordinates rounded once to binary64, bit for bit, subnormal and
    tiny entries included."""
    rep = build_rep(lambda_for(n, J))
    rng = np.random.default_rng([n, len(J), 30])
    word = standard_word_w0(n)

    def extreme():
        return Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000))) * Fraction(10) ** int(rng.integers(-30, 31))

    for _ in range(4):
        params = FactorizationParams(word, tuple(extreme() for _ in word.letters))
        g = sample_positive(params, "lower")
        exact = np.ones(1, dtype=object)
        for k in rep.factors:
            col = [leibniz_det(g.entries[np.ix_(rows, range(k))]) for rows in itertools.combinations(range(n), k)]
            exact = np.multiply.outer(exact, np.array(col, dtype=object)).reshape(-1)
        want = np.array(exact[list(rep.pivot_cols)], dtype=np.float64)
        got = line_of(rep, params, "lower")
        assert np.all(np.isfinite(got)) and np.any(got != 0)
        assert np.equal(got, want).all(), (n, J)


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
    """chart_coords inverts chart_line, also where eigenvalues repeat: with
    multiplicity 2 at (3, ()), up to 8 at (4, ()) and up to 7 at (5, {1,4})."""
    for chart in (chart3, *(eigenchart(build_rep(lambda_for(n, J))) for n, J in ((4, ()), (5, (1, 4))))):
        p = rng.normal(size=chart.ncoords)
        line = chart_line(chart, p)
        q = chart_coords(chart, line)
        assert np.max(np.abs(p - q)) < 1e-10


def test_chart_overflow():
    rep = build_rep(lambda_for(3, ()))
    chart = eigenchart(rep)
    # a line orthogonal to the top eigenvector has no chart coordinates
    vec = chart.eigvecs[:, 3]
    with pytest.raises(ChartOverflowError):
        chart_coords(chart, vec)


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (4, ()), (5, (1, 4))])
def test_eigenvectors_are_rho_p_on_orthonormal_weight_bases(n, J):
    """Each eigenvector is rho(P) q, q from one weight space's echelon rows
    orthonormalized in pivot order with a positive diagonal.

    rho(P) is built here as a dense Kronecker product of compounds, each
    entry one determinant of a submatrix of P.  Pulled back by rho(P)^T, the
    eigenvectors of one weight space must meet its echelon rows in a lower
    triangular matrix with a positive diagonal, and keep the rows' order.
    """
    rep = build_rep(lambda_for(n, J))
    chart = eigenchart(rep)
    _, p = generator_sum_spectrum(n)
    rho = np.ones((1, 1))
    for k in rep.factors:
        subsets = list(itertools.combinations(range(n), k))
        rho = np.kron(rho, [[np.linalg.det(p[np.ix_(s, t)]) for t in subsets] for s in subsets])
    basis = rep.float_basis()
    frame = rho.T @ basis.T @ chart.eigvecs
    weights = np.array(_ambient_weights(n, rep.factors))
    row_weight = [tuple(weights[c]) for c in rep.pivot_cols]
    col_weight = [tuple(weights[int(np.argmax(np.abs(frame[:, j])))]) for j in range(rep.dim)]
    for j, w in enumerate(col_weight):
        assert np.max(np.abs(frame[(weights != w).any(axis=1), j]), initial=0.0) <= 1e-12
    for w in set(row_weight):
        rows = [r for r in range(rep.dim) if row_weight[r] == w]
        cols = [j for j in range(rep.dim) if col_weight[j] == w]
        assert len(rows) == len(cols)
        meet = basis[rows] @ frame[:, cols]
        assert np.max(np.abs(np.triu(meet, 1))) <= 1e-12
        assert np.all(np.diag(meet) > 1e-6)
    assert np.allclose(frame.T @ frame, np.eye(rep.dim), atol=1e-12)


def _eigh_chart(rep):
    """The numerical route: orthonormalize the module basis by QR, diagonalize
    the generator sum in that frame with ``eigh``.  Returns the eigenvalues,
    descending, and the eigenvectors as ambient columns."""
    q, _ = np.linalg.qr(rep.float_basis().T)
    w, v = np.linalg.eigh(q.T @ _tau_times(rep, q))
    return w[::-1], q @ v[:, ::-1]


@pytest.mark.parametrize(
    "n,J",
    [(3, ()), (3, (2,)), (4, (2,)), (4, (1,)), (4, (1, 3)), (4, ()), (5, (2, 3)), (5, (1, 4)), (5, ())],
)
def test_eigenchart_matches_eigh_oracle(n, J):
    """The closed-form chart against ``eigh`` on the module, up to dim 1024.

    Eigenvalues agree to 1e-12.  The eigenvectors, mapped to the ambient space
    through the echelon rows, are orthonormal and satisfy tau E = E diag(mu) to
    1e-12 in the Frobenius norm, with tau applied through the index moves.
    Inside a repeated eigenvalue the two bases differ, so TNN flags are
    compared by their chart norm and by their norm within each eigenspace.
    The oracle's eigenvectors carry an error of about eps * |tau| / gap in
    every direction, which is large beside an eigenspace holding 1e-5 of the
    point, so those norms are compared to 1e-12 of the chart norm.
    """
    rep = build_rep(lambda_for(n, J))
    chart = eigenchart(rep)
    mu_oracle, vecs_oracle = _eigh_chart(rep)
    assert np.max(np.abs(chart.mu - mu_oracle)) <= 1e-12
    assert chart.gap > 0.5 and np.all(np.diff(chart.mu) <= 0)

    basis = rep.float_basis()
    e = basis.T @ chart.eigvecs
    assert np.linalg.norm(_tau_times(rep, e) - e * chart.mu) <= 1e-12
    assert np.linalg.norm(e.T @ e - np.eye(rep.dim)) <= 1e-12

    # eigenspace index of each chart coordinate
    space = np.cumsum(np.diff(chart.mu) < -1e-9)
    rng = np.random.default_rng([n, *J, 10])
    for _ in range(3):
        line = line_of(rep, sample_params(standard_word_w0(n), rng), "lower")
        p = chart_coords(chart, line)
        a = vecs_oracle.T @ (basis.T @ line)
        want = a[1:] / a[0]
        norm = np.linalg.norm(want)
        assert abs(np.linalg.norm(p) - norm) <= 1e-12 * norm
        for k in np.unique(space):
            at = space == k
            assert abs(np.linalg.norm(p[at]) - np.linalg.norm(want[at])) <= 1e-12 * norm, k


def _per_space_chart(rep):
    """The eigenchart with one QR, one scatter and one product per weight space.

    The same steps as :func:`eigenchart` in its per-weight-space form: each
    space's echelon rows are orthonormalized by their own ``np.linalg.qr``
    with a positive diagonal, rho(P) is applied one factor at a time, the
    eigenvalues are sorted by a stable sort, and each space's columns of the
    inverse are its frame rows times its block.  Returns ``(mu, eigvecs,
    eigvecs_inv)``.
    """
    n = rep.n
    d, p = generator_sum_spectrum(n)
    dims = [math.comb(n, k) for k in rep.factors]
    occupancy = sum(
        np.array([[i in s for i in range(n)] for s in itertools.combinations(range(n), k)])[digits]
        for k, digits in zip(rep.factors, np.unravel_index(rep.pivot_cols, dims))
    )
    spaces = {}
    for r, weight in enumerate(map(tuple, occupancy)):
        spaces.setdefault(weight, []).append(r)
    frame = np.zeros((rep.ambient_dim, rep.dim))
    blocks = []
    for rows in spaces.values():
        cols = sorted(set().union(*(rep.rows[r] for r in rows)))
        block = np.array([[rep.rows[r].get(c, 0) / rep.rows[r][rep.pivot_cols[r]] for c in cols] for r in rows])
        q, tri = np.linalg.qr(block.T)
        frame[np.ix_(cols, rows)] = q * np.sign(np.diag(tri))
        blocks.append((rows, cols, block))
    for axis, k in enumerate(rep.factors):
        shaped = frame.reshape(*dims, rep.dim)
        frame = np.moveaxis(np.tensordot(embedding._compound(p, k), shaped, axes=(1, axis)), 0, axis)
    mu = occupancy @ d
    order = np.argsort(-mu, kind="stable")
    frame = frame.reshape(rep.ambient_dim, rep.dim)[:, order]
    inv = np.empty((rep.dim, rep.dim))
    for rows, cols, block in blocks:
        inv[:, rows] = frame[cols].T @ block.T
    return mu[order], frame[list(rep.pivot_cols)], inv


def _counting_qr(monkeypatch):
    """Count the calls to ``np.linalg.qr`` from here on."""
    calls, qr = [], np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


# (n, J): QR calls per chart, one per weight space / one per block shape other than 1 x 1
QR_CALLS = {
    (2, ()): (2, 0),  # only 1 x 1 spaces
    (3, ()): (7, 1),
    (3, (2,)): (3, 0),
    (4, (2,)): (13, 1),
    (4, (1,)): (16, 1),  # four 2 x 3 blocks share one shape
    (4, (1, 3)): (6, 0),
    (5, (2, 3)): (21, 1),
    (5, ()): (291, 5),  # six shapes up to 24 x 110, one of them 1 x 1
}


@pytest.mark.parametrize("n,J", list(QR_CALLS))
def test_eigenchart_equals_the_per_weight_space_oracle(n, J, monkeypatch):
    """The stacked chart has the per-space chart's bits, with one QR per block shape.

    Spaces of one (rows, support columns) shape share one stacked QR, and a
    space with one row and one ambient entry takes q = 1 with no QR at all.
    """
    rep = build_rep(lambda_for(n, J))
    calls = _counting_qr(monkeypatch)
    chart = eigenchart(rep)
    stacked = len(calls)
    oracle = _per_space_chart(rep)
    assert (len(calls) - stacked, stacked) == QR_CALLS[n, J]
    assert all(shape[:-2] for shape in calls[:stacked])  # each call takes a stack
    for name, want in zip(("mu", "eigvecs", "eigvecs_inv"), oracle):
        np.testing.assert_array_equal(getattr(chart, name), want, err_msg=name)


def test_eigenchart_makes_one_qr_per_shape_that_is_not_one_by_one(monkeypatch):
    """The stacks are exactly the distinct block shapes of the weight spaces other than 1 x 1."""
    rep = build_rep(lambda_for(5, ()))
    weights = np.array(_ambient_weights(5, rep.factors))
    spaces = {}
    for r, c in enumerate(rep.pivot_cols):
        spaces.setdefault(tuple(weights[c]), []).append(r)
    shapes = {(len(rows), len(set().union(*(rep.rows[r] for r in rows)))) for rows in spaces.values()}
    assert len(shapes) == 6 and (1, 1) in shapes and (24, 110) in shapes
    calls = _counting_qr(monkeypatch)
    eigenchart(rep)
    assert sorted(shape[1:][::-1] for shape in calls) == sorted(shapes - {(1, 1)})


def test_chart_coords_of_tnn_flags_are_finite(chart3, rng):
    for _ in range(5):
        params = sample_params(standard_word_w0(3), rng)
        p = chart_coords(chart3, line_of(chart3.rep, params, "lower"))
        assert np.all(np.isfinite(p))
