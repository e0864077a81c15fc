"""The closed-form contractive flow: its rates and its slowest rate log C,
crossings, convergence, and the two evaluation paths of the commutation
identity."""

import math
import runpy
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from tnnflow import flow as flow_module
from tnnflow import linalg
from tnnflow.chevalley import FLOAT, GroupElement, generator_sum, generator_sum_spectrum
from tnnflow.embedding import build_rep, chart_coords, eigenchart, lambda_for, line_of
from tnnflow.flow import (
    Convergence,
    CrossingResult,
    DiagonalFlow,
    _flag_margin,
    _frame_gap,
    _frame_gaps,
    _graded_frame,
    commutation_check,
    converge,
    default_ball_radius,
    fixed_flag,
    flag_frame,
    flow_point,
    has_overflow,
    invariance_check,
    log_contraction,
    sphere_crossing,
)
from tnnflow.suite import CASES
from tnnflow.totpos import (
    FactorizationParams,
    _positive_ratio,
    _scaled_product,
    sample_params,
    sample_positive,
    sl3_coords,
    standard_word_w0,
)


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


@pytest.mark.parametrize("n, J", [(3, ()), (3, (2,)), (4, (2,)), (4, ()), (4, (1, 3)), (5, (2, 3)), (5, ())])
def test_log_contraction_matches_the_chart(n, J):
    """The closed form min over recorded k of d_k - d_{k+1} against the built chart's mu_0 - mu_1."""
    assert abs(log_contraction(n, J) - eigenchart(build_rep(lambda_for(n, J))).gap) <= 1e-14


def test_fixed_point_demo_script_runs(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "fixed_point_demo.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--starts", "1"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_.value.code == 0
    assert "start 0: ||p|| along t = " in capsys.readouterr().out


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
    # the factor is exactly 1e-2 of the smallest sampled boundary norm, each sample
    # multiplied out exactly from the rows the batched draw produced
    word = standard_word_w0(3)
    norms = []
    for row in flow_module._boundary_params(word, np.random.default_rng(5), 25):
        u = sample_positive(FactorizationParams(word, tuple(Fraction(t) for t in row.tolist())), "lower")
        norms.append(np.linalg.norm(chart_coords(chart3, line_of(chart3.rep, oracles.to_float(u)))))
    assert abs(r - 1e-2 * min(norms)) < 1e-15


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_boundary_sample_is_the_exact_route_in_binary64(n):
    """The boundary batch is three array draws: the mask sizes, a row of uniforms
    per sample whose smallest ``size`` pick the zeroed letters, and the values, so
    the next draw after it is the next after those three; each kept parameter is
    the float of the exact ratio of its draw, bit for bit, and 0.0 where zeroed.
    Multiplied out, each entry is within 2 len(word) ulps, relative, of the exact
    product of the same parameters rationalized, and zero exactly where that is;
    and a row of ``full`` gives the identity exactly."""
    word = standard_word_w0(n)
    ell = len(word)
    bound = 2 * ell * np.finfo(np.float64).eps
    for seed in range(3):
        rng, oracle = np.random.default_rng([n, seed]), np.random.default_rng([n, seed])
        ts = flow_module._boundary_params(word, rng, 6, full=(2,))
        sizes, ranks = oracle.integers(1, ell + 1, 6), oracle.random((6, ell)).argsort(axis=1).argsort(axis=1)
        draws = oracle.uniform(-3.0, 3.0, (6, ell))
        assert rng.random() == oracle.random()
        assert ts.shape == (6, ell) and ts.dtype == np.float64
        for k, row in enumerate(ts.tolist()):
            zeroed = set(range(ell)) if k == 2 else {j for j in range(ell) if ranks[k, j] < sizes[k]}
            ratios = [(0, 1) if j in zeroed else _positive_ratio(x) for j, x in enumerate(draws[k].tolist())]
            assert [t.as_integer_ratio() for t in row] == ratios
            params = FactorizationParams(word, tuple(Fraction(*pq) for pq in ratios))
            want = linalg._float_of_scaled(*_scaled_product(params, "lower"))
            got = oracles.float_lower_products(word, ts[k : k + 1])[0]
            assert got.dtype == np.float64 and np.array_equal(got == 0.0, want == 0.0)
            assert np.all(np.abs(got - want) <= bound * np.abs(want))
        assert np.array_equal(oracles.float_lower_products(word, ts[2:3])[0], np.eye(n))


@pytest.mark.parametrize("n", [3, 4])
def test_boundary_masks_follow_their_law(n):
    """Every row zeroes 1..len(word) letters and each ``full`` row zeroes all; over
    20,000 rows each nonempty subset of letters is zeroed with frequency within 5
    sigma of its probability: a size uniform on 1..len(word), then a uniform subset
    of that size."""
    word = standard_word_w0(n)
    ell = len(word)
    rows = 20_000
    zeroed = flow_module._boundary_params(word, np.random.default_rng([n, 32]), rows, full=(0, 7)) == 0.0
    sizes = zeroed.sum(axis=1)
    assert sizes.min() >= 1 and sizes.max() <= ell and zeroed[[0, 7]].all()
    keys = (zeroed[8:] * (1 << np.arange(ell))).sum(axis=1)
    counts = np.bincount(keys, minlength=1 << ell)
    assert counts[0] == 0
    for key in range(1, 1 << ell):
        size = bin(key).count("1")
        prob = 1.0 / (ell * math.comb(ell, size))
        expected = (rows - 8) * prob
        assert abs(counts[key] - expected) <= 5.0 * math.sqrt(expected * (1.0 - prob)), (key, counts[key], expected)


def test_sphere_crossing_lands_across_binary64(chart3, flow3):
    """Where the squared chart norm underflows or overflows binary64, the crossing still
    lands on its sphere: the residual is the norm summed at the scale of its largest
    coordinate.  It lands too where exp(t r_k) alone overflows but the flowed point
    does not."""
    params = sample_params(standard_word_w0(3), np.random.default_rng(0))
    p = chart_coords(chart3, line_of(chart3.rep, params, "lower"))
    for radius in (1e-3, 1e-300, 1e300):
        assert abs(sphere_crossing(flow3, p, radius=radius).residual) <= 1e-12 * radius, radius
    # at the crossing, exp(-1000 t) overflows, yet 1e-300 exp(-1000 t) is about 1e10
    flow = DiagonalFlow(rates=np.array([-1.0, -1000.0]))
    hit = sphere_crossing(flow, np.array([1.0, 1e-300]), radius=1e10)
    assert -1000.0 * hit.time > math.log(np.finfo(np.float64).max)
    assert abs(hit.residual) <= 1e-12 * 1e10 and np.all(np.isfinite(hit.point))


def test_sphere_crossing_rejects_bad_input(flow3):
    with pytest.raises(ValueError):
        sphere_crossing(flow3, np.zeros(flow3.ncoords), radius=1.0)
    for radius in (-2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sphere_crossing(flow3, np.ones(flow3.ncoords), radius=radius)
    drift = DiagonalFlow(rates=np.array([0.5, -1.0]))  # not contractive
    with pytest.raises(ValueError):
        sphere_crossing(drift, np.ones(2), radius=1.0)


def test_flow_point_keeps_products_that_binary64_holds():
    """Where exp(t r_k) alone overflows, is subnormal or underflows to 0, but the flowed
    coordinate is a normal number, that coordinate is kept to 1e-12 relative: the
    reference takes exp(t r_k / 2) twice, each factor normal.  Zeros stay zero, and a
    coordinate whose own exp(t r_k) is normal keeps its bits."""
    flow = DiagonalFlow(rates=np.array([-1.0, -1000.0, -1.035]))
    for t, p in ((-0.75, [1.0, 1e-300, 0.0]), (716.44, [1e300, 0.0, 3.68e79]), (750.0, [1e300, 0.0, -1e300])):
        p = np.array(p)
        with np.errstate(all="raise"):
            got = flow_point(flow, t, p)
        half = np.exp(t * flow.rates / 2)
        want = p * half * half
        with np.errstate(all="ignore"):
            factor = np.exp(t * flow.rates)
        for k, (x, y) in enumerate(zip(got, want)):
            if p[k] == 0:
                assert x == 0
            elif np.finfo(np.float64).tiny <= factor[k] < math.inf:
                assert x == p[k] * factor[k]
            else:
                assert math.isfinite(x) and abs(x) > 0 and abs(x - y) <= 1e-12 * abs(y), (t, k, x, y)


def test_converge_lands_where_exp_is_subnormal():
    """exp(-1.035 t) is subnormal at the time 3.68e79 takes to fall below 3.4e-243: the
    norm is read through the logarithm there, so the walk ends below tol."""
    run = converge(DiagonalFlow(rates=np.array([-1.035])), np.array([3.68e79]), 3.4e-243)
    assert 0 < math.exp(-1.035 * run.time) < np.finfo(np.float64).tiny
    assert run.final_norm < 3.4e-243 and run.within_bound


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
    for t in (0.1, 1.0):
        result = commutation_check(chart3, (t,), rng, 1)
        assert result["max_diff"][0] < 1e-9


@pytest.mark.parametrize("n, J", [(3, ()), (4, (2,)), (4, ()), (5, (2, 3))])
def test_commutation_holds_at_large_t(n, J):
    """Acting on the flowed frame agrees with the chart flow at t = 4 and 8,
    where a product exp(t tau) g loses the small coordinates (up to 5e-2)."""
    chart = eigenchart(build_rep(lambda_for(n, J)))
    rng = np.random.default_rng([n, len(J)])
    result = commutation_check(chart, (4.0, 8.0), rng, 20)
    for t, worst, flowed in zip((4.0, 8.0), result["max_diff"], result["flowed"]):
        assert worst <= 1e-9 * np.max(np.abs(flowed)), (t, worst)


def test_checks_flow_their_samples_as_one_stack(chart3, rng, monkeypatch):
    """Each check multiplies its samples out in one binary64 kernel call, and makes one
    stacked flow call and one stacked embedding or minors call: the commutation check
    embeds its acted frames and its samples in one stack, and the invariance check
    multiplies out and takes the minors of its negative control in the same stacks."""
    stacks, float_lines, minors = [], flow_module._float_lines, flow_module.flag_minors
    drawn, multiplied = flow_module._float_lower_samples, flow_module._run_word

    def draw(word, rng, count):
        stacks.append(("draw", count))
        return drawn(word, rng, count)

    def multiply(n, k, steps, state, add):
        stacks.append(("multiply", len(state)))
        return multiplied(n, k, steps, state, add)

    def flowed(g, *args):
        stacks.append(("flow", g.shape))
        return flag_frame(g, *args)

    def embedded(rep, frames):
        stacks.append(("embed", frames.shape))
        return float_lines(rep, frames)

    def minored(frames, levels):
        stacks.append(("minors", frames.shape))
        return minors(frames, levels)

    monkeypatch.setattr(flow_module, "flag_frame", flowed)
    monkeypatch.setattr(flow_module, "_float_lines", embedded)
    monkeypatch.setattr(flow_module, "flag_minors", minored)
    monkeypatch.setattr(flow_module, "_float_lower_samples", draw)
    monkeypatch.setattr(flow_module, "_run_word", multiply)
    commutation_check(chart3, (0.1, 1.0), rng, 4)
    assert stacks == [("draw", 8), ("flow", (8, 3, 3)), ("embed", (16, 3, 3))]
    invariance_check(3, (), 0.1, rng, count=5)
    assert stacks[3:] == [("multiply", 6), ("flow", (5, 3, 3)), ("minors", (6, 3, 3))]
    default_ball_radius(chart3, rng)
    assert stacks[6:] == [("multiply", 25), ("embed", (25, 3, 3))]


def test_checks_refuse_negative_time(chart3, rng):
    """The gates flow forward only, although their frames could go back on the reversed spectrum."""
    with pytest.raises(ValueError, match="t must be >= 0"):
        commutation_check(chart3, (0.1, -0.1), rng, 1)
    with pytest.raises(ValueError, match="at one time at least"):
        commutation_check(chart3, (), rng, 1)
    with pytest.raises(ValueError, match="t must be >= 0"):
        invariance_check(3, (), -0.1, rng, count=2)


def test_flag_margin_ignores_the_sign_of_a_frame(rng):
    """A level's minors share the sign of the frame's basis; negating any column of a
    frame leaves the margin of each level the same, bit for bit, on interior and
    boundary flags, as matrices and as orthonormal frames."""
    for n in (3, 4, 5):
        word = standard_word_w0(n)
        frames = np.array([oracles.to_float(sample_positive(sample_params(word, rng, zero_mask=mask), "lower")).entries
                           for mask in ([], [], [0], [len(word) - 1], range(len(word)))])
        frames = np.concatenate([frames, np.linalg.qr(frames)[0]])
        for k in range(1, n):
            margins = _flag_margin(frames, [k])
            for column in range(n):
                flipped = frames.copy()
                flipped[:, :, column] *= -1.0
                assert _flag_margin(flipped, [k]).tobytes() == margins.tobytes(), (n, k, column)
        interior, boundary = _flag_margin(frames, range(1, n))[[0, 4]]
        assert interior > 0 and boundary == 0.0
        assert _flag_margin(np.zeros((1, n, n)), [1])[0] == -math.inf


def test_flag_margin_reads_the_recorded_levels_only(monkeypatch):
    """A negative flag minor on a recorded level refuses a frame; one on a level the
    type does not record does not.  Here every entry of the first column is positive,
    and the 2 x 2 minor on rows {1, 2} is negative."""
    frame = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 1.0]])
    assert _flag_margin(frame[None], [1]) == 1.0
    assert _flag_margin(frame[None], [2]) == _flag_margin(frame[None], [1, 2]) == -0.5
    # every flowed sample of the check replaced by this frame
    monkeypatch.setattr(flow_module, "flag_frame", lambda gs, t: np.array([frame] * len(gs)))
    for J, passed in (((2,), True), ((), False), ((1,), False)):
        out = invariance_check(3, J, 0.1, np.random.default_rng(0), count=3)
        assert out["passed"] is out["all_interior"] is passed, J
        assert out["control_interior"] is False


def test_frame_read_off_at_t0_is_the_flags_own(rng):
    """At t = 0 the flowed frame of a float flag reads the (v, w) of the exact flag to 1e-14."""
    word = standard_word_w0(3)
    for mask in ([], [], [0], [2]):
        g = sample_positive(sample_params(word, rng, zero_mask=mask), "lower")
        got = sl3_coords(flag_frame(oracles.to_float(g).entries, 0.0)).as_vector()
        want = sl3_coords(g.entries).as_vector().astype(np.float64)
        assert np.max(np.abs(got - want)) <= 1e-14, mask


@pytest.mark.parametrize("n", [3, 4, 6])
def test_backward_frames_match_the_product_and_the_stepwise_flow(n, stepwise_frame):
    """For t < 0 the frame comes from the reversed spectrum, whose rows the graded step
    grades large to small.  At |t| <= 2 it matches the QR of the product P diag(e^{t d}) P^T g
    to 1e-12 on well-conditioned g, and at t = -8 the stepwise flow to 1e-13, also on
    factorization samples; it is the graded step at -t on the reversed spectrum, bit for
    bit, and a scalar t >= 0 is that time for each matrix, bit for bit."""
    rng = np.random.default_rng([n, 27])
    d, p = generator_sum_spectrum(n)
    gs = rng.standard_normal((6, n, n))
    for t in (-0.5, -1.0, -2.0):
        product = np.linalg.qr((p * np.exp(t * d)) @ p.T @ gs)[0]
        assert np.max(_frame_gap(flag_frame(gs, t), product)) <= 1e-12, t
    word = standard_word_w0(n)
    samples = [linalg._float_of_scaled(*_scaled_product(sample_params(word, rng), "lower")) for _ in range(4)]
    gs = np.concatenate([gs, samples])
    assert np.max(_frame_gap(flag_frame(gs, -8.0), stepwise_frame(gs, -8.0))) <= 1e-13
    reversed_spectrum = _graded_frame(np.linalg.qr(gs)[0], 8.0, -d[::-1], p[:, ::-1])
    assert np.array_equal(flag_frame(gs, -8.0), reversed_spectrum)
    assert np.array_equal(flag_frame(gs, 2.0), flag_frame(gs, np.full(len(gs), 2.0)))


def test_flag_frame_refuses_a_negative_time_per_matrix(rng):
    """One time per matrix flows forward only; a stack flows backward at one scalar time."""
    gs = rng.standard_normal((3, 4, 4))
    for times in ([0.5, -0.1, 1.0], [-1.0, -1.0, -1.0], [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match="one time per matrix must be >= 0"):
            flag_frame(gs, np.array(times))
    assert flag_frame(gs, np.array([0.0, 0.5, 1.0])).shape == (3, 4, 4)


def test_frame_gaps_match_the_per_level_projection(rng):
    """One product Qa^T Qb gives each level's gap as the per-level projection of the
    leading k columns does, to 1e-15, on random orthonormal stacks at n = 2..8, for
    one pair and for stacks; a frame against itself reads round-off, below 1e-15."""
    for n in range(2, 9):
        qa, qb = np.linalg.qr(rng.standard_normal((2, 30, n, n)))[0]
        # flags from unrelated down to 1e-12 apart
        near = np.linalg.qr(qa @ (np.eye(n) + np.logspace(1, -12, 30)[:, None, None] * qb))[0]
        for a, b in ((qa, qb), (qa, near), (qa[0], qb[0])):
            got, want = _frame_gaps(a, b), oracles.frame_gaps(a, b)
            assert got.shape == want.shape == (*a.shape[:-2], n - 1)
            assert np.max(np.abs(got - want)) <= 1e-15, n
        assert np.max(_frame_gaps(qa, qa)) <= 1e-15, n


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_frame_gap_of_a_givens_turn_is_its_sine_at_its_level_only(n, rng):
    """Turning columns k and k+1 of a frame by theta moves only the k-plane of its flag,
    by the angle theta: the gap reads |sin theta| at level k and round-off elsewhere."""
    qa = np.linalg.qr(rng.standard_normal((n, n)))[0]
    for k in range(1, n):
        for theta in (1e-9, 1e-4, 0.3, -1.2, np.pi / 2, 2.5):
            givens = np.eye(n)
            givens[k - 1 : k + 1, k - 1 : k + 1] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            gaps = _frame_gaps(qa, qa @ givens)
            assert gaps[k - 1] == pytest.approx(abs(np.sin(theta)), rel=1e-12, abs=1e-15), (k, theta)
            assert np.max(np.delete(gaps, k - 1), initial=0.0) <= 1e-15, (k, theta)


@pytest.mark.parametrize("count", [0, -2])
def test_invariance_check_refuses_an_empty_sample(rng, count):
    with pytest.raises(ValueError, match="count"):
        invariance_check(3, (), 0.1, rng, count=count)


@pytest.mark.parametrize("n, J", [(3, ()), (4, (2,))])
def test_commutation_check_of_k_samples_is_k_checks_of_one(n, J, chart3, chart42):
    """One call with count k draws the stream of k calls with count 1 and gives each
    sample's points as rows, bit for bit, and leaves the generator where they leave it.
    Each row is the sample's own: the points of the binary64 product of its
    ``sample_params`` draw, embedded, charted and flowed on their own, and of that
    product's frame flowed, embedded and charted on its own."""
    chart = {3: chart3, 4: chart42}[n]
    flow = DiagonalFlow.from_chart(chart)
    for k, t in ((1, 0.1), (5, 1.0), (12, 4.0)):
        rng, oracle, drawn = (np.random.default_rng([n, k, 28]) for _ in range(3))
        result = commutation_check(chart, (t,), rng, k)
        singles = [commutation_check(chart, (t,), oracle, 1) for _ in range(k)]
        assert result["max_diff"] == [max(r["max_diff"][0] for r in singles)]
        for key in ("acted", "flowed"):
            assert result[key].shape == (1, k, chart.ncoords)
            assert result[key].tobytes() == np.concatenate([r[key] for r in singles], axis=1).tobytes(), key
        word = standard_word_w0(n)
        for acted, flowed in zip(result["acted"][0], result["flowed"][0]):
            g = oracles.float_lower_products(word, [[float(x) for x in sample_params(word, drawn).t]])[0]
            line = line_of(chart.rep, GroupElement(g.copy(), FLOAT))
            assert flowed.tobytes() == flow_point(flow, t, chart_coords(chart, line)).tobytes()
            frame = GroupElement(flag_frame(g[None], t)[0], FLOAT)
            assert acted.tobytes() == chart_coords(chart, line_of(chart.rep, frame)).tobytes()
        assert rng.uniform() == oracle.uniform() == drawn.uniform()
    for count in (0, -1):
        with pytest.raises(ValueError, match="count"):
            commutation_check(chart, (1.0,), np.random.default_rng(0), count)


@pytest.mark.parametrize("n, J", [(3, ()), (4, (2,))])
@pytest.mark.parametrize("times", [(0.1, 1.0), (0.1, 1.0, 8.0)])
def test_commutation_check_over_times_is_one_check_per_time(n, J, times, chart3, chart42):
    """One call over several times draws the stream of one call per time, in order, and
    gives each time's slice of points and its max difference as that call does, bit for
    bit, and leaves the generator where those calls leave it."""
    chart = {3: chart3, 4: chart42}[n]
    rng, oracle = np.random.default_rng([n, 41]), np.random.default_rng([n, 41])
    result = commutation_check(chart, times, rng, 6)
    singles = [commutation_check(chart, (t,), oracle, 6) for t in times]
    assert result["max_diff"] == [r["max_diff"][0] for r in singles]
    for key in ("acted", "flowed"):
        assert result[key].shape == (len(times), 6, chart.ncoords)
        assert result[key].tobytes() == np.concatenate([r[key] for r in singles]).tobytes(), key
    assert rng.uniform() == oracle.uniform()


def test_invariance_all_cases(rng):
    """Each invariance row of the verify table, at its own t."""
    for row in CASES:
        if row.gate != "invariance":
            continue
        out = invariance_check(row.n, row.J, row.t, rng, count=25)
        assert out["passed"], out
        assert not out["control_interior"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [4, 5])
def test_invariance_of_the_complete_flag_at_n_4_and_5(n, seed):
    """The complete flag at t = 0.1, where a product margin over the module line
    read 2.3e-13 at n = 4 and 8.3e-28 at n = 5 on the base flag; per level it
    reads 8.3e-6 and 6.9e-9."""
    out = invariance_check(n, (), 0.1, np.random.default_rng(seed), count=33)
    assert out["passed"] and not out["control_interior"], out


def test_invariance_check_builds_no_module(monkeypatch):
    """At n = 8 the check runs on frames alone: building a module or a chart raises.
    t = 1, since at t = 0.1 the flowed base flag's minors at n = 8 are about 1e-25
    of the largest of their level, below the 1e-12 bar."""

    def refuse(*args, **kwargs):
        raise AssertionError("the invariance check built a module")

    for module in [m for name, m in sys.modules.items() if name.startswith("tnnflow")]:
        for name in ("build_rep", "eigenchart"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    started = time.perf_counter()
    out = invariance_check(8, (), 1.0, np.random.default_rng(0), count=100)
    elapsed = time.perf_counter() - started
    assert out["passed"] and 1e-12 < out["worst_margin"] < 1e-6, out
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# the Newton solver against the bisections it replaced


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


def _near_crossing(flow, p, radius):
    """Where the oracle crossing lands, the Newton crossing lands too, on the
    sphere to 1e-12 relative.  The norm falls at least at the rate log C, so
    each time is within 1e-12 / log C of the exact crossing, and the two are
    within twice that of each other."""
    want = _oracle_sphere_crossing(flow, p, radius)
    got = sphere_crossing(flow, p, radius)
    assert abs(got.time - want.time) <= 2e-12 / flow.log_contraction
    assert abs(got.residual) <= 1e-12 * radius and got.radius == radius
    return got


def _same_convergence(flow, p, tol):
    """The oracle's T and final norm, bit for bit, below tol."""
    got, want = converge(flow, p, tol), _oracle_converge(flow, p, tol)
    assert type(got.time) is float
    assert (got.time, got.final_norm) == (want.time, want.final_norm) and got.final_norm < tol
    assert got.bound == pytest.approx(want.bound, rel=1e-15)
    return got


def test_bisections_set_their_own_floating_point_error_state(chart3, flow3, rng):
    """converge and sphere_crossing run their norm kernel under their own
    error state: under the caller's ``np.errstate(all="raise")`` they give the
    same bits, also where exp(t * rates) underflows (tol 1e-300, radius
    1e-150) and where the squared norm overflows (radius 1e200)."""
    p = chart_coords(chart3, line_of(chart3.rep, sample_params(standard_word_w0(3), rng), "lower"))
    for tol in (1e-9, 1e-300):
        want = converge(flow3, p, tol)
        with np.errstate(all="raise"):
            got = converge(flow3, p, tol)
        assert (got.time, got.final_norm, got.bound) == (want.time, want.final_norm, want.bound)
    for radius in (1e-9, 1e-150, 1e200):
        want = sphere_crossing(flow3, p, radius)
        with np.errstate(all="raise"):
            got = sphere_crossing(flow3, p, radius)
        assert (got.time, got.residual) == (want.time, want.residual)


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (5, (2, 3))])
def test_newton_matches_the_bisection_oracles(n, J):
    """On TNN chart points, converge gives the bisection's T bit for bit: for a
    start already inside the target ball, a crossing within [0, 1], and a start
    whose squared norm overflows.  sphere_crossing lands within 2e-12 / log C
    of the bisection's time, also for a start inside the sphere (a crossing in
    the past); where the squared norm overflows, the bisection misses the sphere
    and sphere_crossing lands on it."""
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
        # norm(1) < tol <= norm(0): the crossing lies in [0, 1]
        assert _same_convergence(flow, p, (norm0 + norm1) / 2.0).time <= 1.0
        for radius in (1e-2 * norm0, 1e-9 * norm0, (norm0 + norm1) / 2.0):
            assert _near_crossing(flow, p, radius).time > 0.0
        for radius in (2.0 * norm0, 1e6):  # inside the sphere: the crossing is in the past
            assert _near_crossing(flow, p, radius).time < 0.0
        # the squared norm overflows past 1.3e154: the bisection ends where it stops
        # overflowing and misses the sphere; Newton lands on it, its norm taken at scale
        with pytest.raises(ValueError, match=r"misses the sphere of radius 1e\+200 by "):
            _oracle_sphere_crossing(flow, p, 1e200)
        assert abs(sphere_crossing(flow, p, 1e200).residual) <= 1e-12 * 1e200
        # a start whose squared norm overflows: its norm is summed at a scale where it does not
        with np.errstate(over="ignore"):
            want = _oracle_converge(flow, p * 1e300, 1e-9)
        got = converge(flow, p * 1e300, 1e-9)
        assert want.bound == math.inf and math.isfinite(got.bound) and got.within_bound
        assert (got.time, got.final_norm) == (want.time, want.final_norm)


def _norm_there(flow, p, t):
    with np.errstate(over="ignore", under="ignore"):
        return flow_module._norm_at(flow, p, t)


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (5, (2, 3))])
def test_converge_keeps_the_norm_it_took_at_its_time(n, J):
    """Over seeds 0-20 the final norm is the norm at T, bit for bit, whichever way the
    ulp walk went from the Newton time: at (3, ()) seed 1, tol 1e-9, it moves down."""
    chart = eigenchart(build_rep(lambda_for(n, J)))
    flow = DiagonalFlow.from_chart(chart)
    for seed in range(21):
        line = line_of(chart.rep, sample_params(standard_word_w0(n), np.random.default_rng(seed)), "lower")
        p = chart_coords(chart, line)
        for tol in (1e-3, 1e-9, 1e-12):
            run = converge(flow, p, tol)
            assert run.final_norm == _norm_there(flow, p, run.time) and run.final_norm < tol
            if (n, J, seed, tol) == (3, (), 1, 1e-9):
                with np.errstate(under="ignore"):
                    assert run.time < flow_module._time_at_norm(flow.rates, p, tol)


def test_converge_takes_the_norm_at_the_end_of_a_full_upward_walk(monkeypatch):
    """An upward walk that uses all 64 ulps never took the norm at its last T, so the
    final norm is taken there: from a Newton time far short of the goal, T is 64 ulps
    up and its norm, still above tol, is the norm at T.  An ulp of 2^40 moves the norm
    by about 2.4e-14 relative here, so the norm one ulp short of T differs from it."""
    flow, p = DiagonalFlow(np.array([-1e-10, -2e-10])), np.array([0.5, 2.0])
    monkeypatch.setattr(flow_module, "_time_at_norm", lambda rates, p, target: 2.0**40)
    run = converge(flow, p, 1e-60)
    t = 2.0**40
    for _ in range(64):
        t = math.nextafter(t, math.inf)
    assert run.time == t and run.final_norm == _norm_there(flow, p, t) > 1e-60
    assert run.final_norm != _norm_there(flow, p, math.nextafter(t, -math.inf))


magnitudes = st.floats(-200.0, 200.0).map(lambda e: 10.0**e)
chart_coordinates = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda x: -x))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-50.0, -0.01), min_size=1, max_size=4), st.data(), st.floats(-250.0, 250.0))
def test_newton_lands_or_refuses_across_binary64(distinct, data, log_target):
    """Over negative rates (some repeated), points with zeros and magnitudes
    from 1e-200 to 1e200, and targets from 1e-250 to 1e250, every crossing
    lands on its sphere or refuses it as a miss, and every convergence time is
    finite and within its a priori bound; nothing raises a floating-point error."""
    rates = distinct + data.draw(st.lists(st.sampled_from(distinct), max_size=3))
    p = np.array(data.draw(st.lists(chart_coordinates, min_size=len(rates), max_size=len(rates))))
    assume(np.any(p))
    flow, target = DiagonalFlow(np.array(rates)), 10.0**log_target
    with np.errstate(all="raise"):
        try:
            hit = sphere_crossing(flow, p, target)
        except ValueError as exc:
            assert "misses the sphere" in str(exc)
        else:
            assert abs(hit.residual) <= 1e-12 * target
        run = converge(flow, p, target)
    assert math.isfinite(run.time) and run.within_bound
