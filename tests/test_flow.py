"""The closed-form contractive flow: axioms, crossings, convergence, and the
two evaluation paths of the commutation identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflow import linalg
from tnnflow.chevalley import generator_sum
from tnnflow.embedding import build_rep, chart_coords, eigenchart, lambda_for, line_of
from tnnflow.flow import (
    Convergence,
    CrossingResult,
    DiagonalFlow,
    commutation_check,
    converge,
    default_ball_radius,
    fixed_flag,
    flow_point,
    has_overflow,
    invariance_check,
    line_to_sl3_coords,
    sphere_crossing,
    trajectory,
    verify_axioms,
)
from tnnflow.suite import CASES
from tnnflow.totpos import sample_params, sample_positive, sl3_coords, standard_word_w0


def test_flow_rates_from_chart(flow3):
    assert flow3.ncoords == 7
    assert flow3.is_contractive
    assert abs(flow3.log_contraction - math.sqrt(2.0)) < 1e-12
    # rates are mu_k - mu_0 <= -gap < 0
    assert np.max(flow3.rates) <= -flow3.log_contraction + 1e-12


def test_flow_identity_and_formula(flow3):
    p = np.linspace(0.2, 1.4, flow3.ncoords)
    assert np.array_equal(flow_point(flow3, 0.0, p), p)
    moved = flow_point(flow3, 0.5, p)
    want = p * np.exp(0.5 * np.asarray(flow3.rates))
    assert np.max(np.abs(moved - want)) == 0


times = st.floats(min_value=0.01, max_value=5.0)


@settings(max_examples=50, deadline=None)
@given(times, times)
def test_semigroup_property(t1, t2):
    flow = DiagonalFlow(rates=np.array([-1.0, -2.5, -0.125]))
    p = np.array([0.7, -1.3, 2.9])
    once = flow_point(flow, t1 + t2, p)
    twice = flow_point(flow, t2, flow_point(flow, t1, p))
    assert np.max(np.abs(once - twice)) <= 1e-12 * np.max(np.abs(once))


@settings(max_examples=50, deadline=None)
@given(times)
def test_contraction_bound(t):
    flow = DiagonalFlow(rates=np.array([-2.0, -3.0, -2.0]))
    p = np.array([1.0, -2.0, 0.5])
    lhs = np.linalg.norm(flow_point(flow, t, p))
    rhs = math.exp(-t * flow.log_contraction) * np.linalg.norm(p)
    assert lhs <= rhs + 1e-12


def test_verify_axioms_passes(flow3, rng):
    report = verify_axioms(flow3, rng, samples=200)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {"continuity", "identity", "semigroup", "contraction"}


def test_verify_axioms_catches_flat_direction(rng):
    # a rate pinned at zero is not contractive and must fail loudly
    flat = DiagonalFlow(rates=np.array([-1.0, 0.0, -2.0]))
    report = verify_axioms(flat, rng, samples=50)
    assert not report.passed
    assert not report.check("contraction").passed


def test_trajectory_shape(flow3):
    p = np.ones(flow3.ncoords)
    ts = [0.0, 0.5, 1.0, 2.0]
    traj = trajectory(flow3, p, ts)
    assert traj.shape == (4, flow3.ncoords)
    assert np.array_equal(traj[0], p)


def test_has_overflow():
    assert not has_overflow(np.array([1.0, 2.0]))
    assert has_overflow(np.array([1.0, np.inf]))
    assert has_overflow(np.array([np.nan, 0.0]))


def test_sphere_crossing_single_rate():
    # all rates equal: ||f(t,p)|| = e^{-t} ||p||, crossing solvable by hand
    flow = DiagonalFlow(rates=np.array([-1.0, -1.0]))
    p = np.array([3.0, 4.0])  # norm 5
    hit = sphere_crossing(flow, p, radius=1.0)
    assert abs(hit.time - math.log(5.0)) < 1e-10
    assert abs(np.linalg.norm(hit.point) - 1.0) < 1e-10
    assert hit.residual <= 1e-12


def test_default_ball_radius(chart3):
    r = default_ball_radius(chart3, np.random.default_rng(5))
    assert 0.0 < r < 0.1  # a hundredth of a boundary norm stays well below 1
    assert r == default_ball_radius(chart3, np.random.default_rng(5))
    # the factor is exactly 1e-2 of the smallest sampled boundary norm
    word = standard_word_w0(3)
    rng = np.random.default_rng(5)
    norms = []
    for _ in range(25):
        size = int(rng.integers(1, len(word) + 1))
        mask = sorted(rng.choice(len(word), size=size, replace=False).tolist())
        u = sample_positive(sample_params(word, rng, zero_mask=mask), "lower")
        norms.append(np.linalg.norm(chart_coords(chart3, line_of(chart3.rep, u.to_float()))))
    assert abs(r - 1e-2 * min(norms)) < 1e-15


def test_sphere_crossing_refuses_a_miss(chart3, flow3):
    """Below ~1e-300 the chart norm underflows, and the crossing cannot land on the sphere."""
    params = sample_params(standard_word_w0(3), np.random.default_rng(0))
    p = chart_coords(chart3, line_of(chart3.rep, params, "lower"))
    assert sphere_crossing(flow3, p, radius=1e-3).residual <= 1e-12 * 1e-3
    with pytest.raises(ValueError, match="misses the sphere"):
        sphere_crossing(flow3, p, radius=1e-300)


def test_sphere_crossing_rejects_bad_input(flow3):
    with pytest.raises(ValueError):
        sphere_crossing(flow3, np.zeros(flow3.ncoords), radius=1.0)
    with pytest.raises(ValueError):
        sphere_crossing(flow3, np.ones(flow3.ncoords), radius=-2.0)
    drift = DiagonalFlow(rates=np.array([0.5, -1.0]))  # not contractive
    with pytest.raises(ValueError):
        sphere_crossing(drift, np.ones(2), radius=1.0)


def test_converge_single_rate():
    flow = DiagonalFlow(rates=np.array([-1.0, -1.0]))
    p = np.array([3.0, 4.0])
    run = converge(flow, p, tol=1e-6)
    assert run.final_norm < 1e-6
    assert run.within_bound
    # the a priori bound for equal rates is tight: log(norm/tol)
    assert run.bound == pytest.approx(math.log(5.0 / 1e-6), rel=1e-12)


def test_fixed_flag_matches_closed_form(pin3):
    frame = fixed_flag(3)
    assert np.max(np.abs(frame.T @ frame - np.eye(3))) < 1e-15
    tau = linalg.to_float(generator_sum(pin3))
    assert np.max(np.abs(tau @ frame - frame * np.array([math.sqrt(2.0), 0.0, -math.sqrt(2.0)]))) < 1e-15
    coords = sl3_coords(frame)
    s = 2.0 + math.sqrt(2.0)
    v = np.array([float(x) for x in coords.v])
    w = np.array([float(x) for x in coords.w])
    want_v = np.array([1.0 / s, math.sqrt(2.0) / s, 1.0 / s])
    assert np.max(np.abs(v - want_v)) < 1e-12
    assert np.max(np.abs(w - want_v)) < 1e-12


def test_commutation_paths_agree(chart3, rng):
    word = standard_word_w0(3)
    for t in (0.1, 1.0):
        params = sample_params(word, rng)
        result = commutation_check(chart3, params, t)
        assert result["max_diff"] < 1e-9


def test_line_to_sl3_coords_roundtrip(chart3, rng):
    params = sample_params(standard_word_w0(3), rng)
    line = line_of(chart3.rep, params, "lower")
    coords = line_to_sl3_coords(chart3, line)
    from tnnflow.totpos import sample_positive

    direct = sl3_coords(sample_positive(params, "lower").entries)
    got = np.array(list(coords.v) + list(coords.w), dtype=float)
    want = np.array([float(x) for x in list(direct.v) + list(direct.w)])
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("count", [0, -2])
def test_invariance_check_refuses_an_empty_sample(rep3, rng, count):
    with pytest.raises(ValueError, match="count"):
        invariance_check(rep3, 0.1, rng, count=count)


def test_commutation_check_takes_a_batch(chart3):
    """A batch gives each sample's points as rows, the same as one call per sample."""
    word = standard_word_w0(3)
    batch = [sample_params(word, np.random.default_rng(k)) for k in range(3)]
    result = commutation_check(chart3, batch, 1.0)
    singles = [commutation_check(chart3, params, 1.0) for params in batch]
    assert result["max_diff"] == max(r["max_diff"] for r in singles)
    for key in ("acted", "flowed"):
        assert np.array_equal(result[key], np.array([r[key] for r in singles]))
    with pytest.raises(ValueError):
        commutation_check(chart3, [], 1.0)


def test_invariance_all_cases(rng):
    """Each invariance row of the verify table, at its own t."""
    for row in CASES:
        if row.gate != "invariance":
            continue
        rep = build_rep(lambda_for(row.n, row.J))
        out = invariance_check(rep, row.t, rng, count=25)
        assert out["passed"], out
        assert not out["control_interior"]


# ---------------------------------------------------------------------------
# the bisections against the evaluations they replaced


def _oracle_sphere_crossing(flow, p, radius, tol=1e-12, max_iter=200):
    """The crossing as first written: every norm is ``np.linalg.norm`` of a
    public :func:`flow_point`, and the bisection runs until it hits the sphere
    or ``max_iter`` is spent."""
    p = np.asarray(p, dtype=np.float64)
    if not flow.is_contractive or np.linalg.norm(p) == 0.0 or radius <= 0:
        raise ValueError("bad input")

    def norm_at(t):
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(flow_point(flow, t, p)))

    lo, hi = 0.0, 0.0
    if norm_at(0.0) >= radius:
        hi = 1.0
        while norm_at(hi) > radius:
            hi *= 2.0
    else:
        lo = -1.0
        while norm_at(lo) < radius:
            lo *= 2.0
    t_star = lo
    for _ in range(max_iter):
        t_star = (lo + hi) / 2.0
        value = norm_at(t_star)
        if abs(value - radius) <= tol * radius:
            break
        if value > radius:
            lo = t_star
        else:
            hi = t_star
    residual = norm_at(t_star) - radius
    if not abs(residual) <= tol * radius:
        raise ValueError(f"the crossing misses the sphere of radius {radius!r} by {residual!r}")
    return CrossingResult(t_star, flow_point(flow, t_star, p), radius, residual)


def _oracle_converge(flow, p, tol):
    """Convergence as first written: 80 bisection steps, whether or not the
    bracket can still shrink, each norm through :func:`flow_point`."""
    p = np.asarray(p, dtype=np.float64)
    norm0 = float(np.linalg.norm(p))
    bound = max(0.0, math.log(max(norm0, 1e-300) / tol)) / flow.log_contraction
    if norm0 < tol:
        return Convergence(0.0, norm0, bound)

    def norm_at(t):
        return float(np.linalg.norm(flow_point(flow, t, p)))

    hi = 1.0
    while norm_at(hi) >= tol:
        hi *= 2.0
    lo = 0.0 if hi == 1.0 else hi / 2.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if norm_at(mid) < tol:
            hi = mid
        else:
            lo = mid
    return Convergence(hi, norm_at(hi), bound)


def _same_crossing(flow, p, radius):
    """Both crossings land on the same bits, or both miss with the same message."""
    try:
        want = _oracle_sphere_crossing(flow, p, radius)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            sphere_crossing(flow, p, radius)
        assert str(got.value) == str(exc)
        return None
    got = sphere_crossing(flow, p, radius)
    assert got.time == want.time and got.residual == want.residual and got.radius == want.radius
    assert np.array_equal(got.point, want.point)
    return got


def _same_convergence(flow, p, tol):
    got, want = converge(flow, p, tol), _oracle_converge(flow, p, tol)
    assert (got.time, got.final_norm, got.bound) == (want.time, want.final_norm, want.bound)
    return got


def test_bisections_set_their_own_floating_point_error_state(chart3, flow3, rng):
    """converge and sphere_crossing run their norm kernel under their own
    error state: under the caller's ``np.errstate(all="raise")`` they give the
    same bits, or the same refusal, also where exp(t * rates) underflows
    (tol 1e-300, radius 1e-150) and where the squared norm overflows (1e200)."""
    p = chart_coords(chart3, line_of(chart3.rep, sample_params(standard_word_w0(3), rng), "lower"))
    for tol in (1e-9, 1e-300):
        want = converge(flow3, p, tol)
        with np.errstate(all="raise"):
            got = converge(flow3, p, tol)
        assert (got.time, got.final_norm, got.bound) == (want.time, want.final_norm, want.bound)
    for radius in (1e-9, 1e-150):
        want = sphere_crossing(flow3, p, radius)
        with np.errstate(all="raise"):
            got = sphere_crossing(flow3, p, radius)
        assert (got.time, got.residual) == (want.time, want.residual)
    with np.errstate(all="raise"), pytest.raises(ValueError, match="misses the sphere"):
        sphere_crossing(flow3, p, 1e200)


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (5, (2, 3))])
def test_bisections_match_the_flow_point_oracles_bit_for_bit(n, J):
    """converge and sphere_crossing on the lean norm kernel, with converge
    stopping once the bracket cannot shrink, give the results of the
    flow_point evaluations to the bit: on TNN chart points, a start already
    inside the target ball, the bracket [0, 1], a start inside the sphere
    (the negative-time bracket), and norms that overflow binary64."""
    chart = eigenchart(build_rep(lambda_for(n, J)))
    flow = DiagonalFlow.from_chart(chart)
    rng = np.random.default_rng([n, *J, 13])
    for _ in range(4):
        p = chart_coords(chart, line_of(chart.rep, sample_params(standard_word_w0(n), rng), "lower"))
        norm0 = float(np.linalg.norm(p))
        norm1 = float(np.linalg.norm(flow_point(flow, 1.0, p)))
        for tol in (1e-3, 1e-9, 1e-12, 2.0 * norm0):
            _same_convergence(flow, p, tol)
        assert _same_convergence(flow, p, 2.0 * norm0).time == 0.0
        # norm(1) < tol <= norm(0): the bracket is [0, 1] from the start
        assert _same_convergence(flow, p, (norm0 + norm1) / 2.0).time <= 1.0
        for radius in (1e-2 * norm0, 1e-9 * norm0, (norm0 + norm1) / 2.0):
            assert _same_crossing(flow, p, radius).time > 0.0
        for radius in (2.0 * norm0, 1e6):  # inside the sphere: the crossing is in the past
            assert _same_crossing(flow, p, radius).time < 0.0
        # the squared norm overflows past 1.3e154, so this sphere cannot be met
        assert _same_crossing(flow, p, 1e200) is None
        with np.errstate(over="ignore"):  # a start whose norm overflows
            assert _same_convergence(flow, p * 1e300, 1e-9).bound == math.inf
