"""Contractive dynamics on flag varieties in eigenchart coordinates.

Acting on a flag by exp(t * generator_sum) becomes, in the affine eigenchart
of the embedding module, the diagonal map

    f(t, p)_k = exp(t * (mu_k - mu_0)) * p_k,

whose rates are the eigenvalue drops below the top of the spectrum.  All
rates are negative, so every chart point is pulled to the origin -- the
stationary flag -- at exponential speed governed by the spectral gap.
This module houses the diagonal flow itself, its slowest rate log C in closed
form, sphere-crossing and convergence reporters, which share one Newton
solver for the time at which a trajectory reaches a given norm, and, off the chart,
:func:`flag_frame`, the one flow of a flag's frame, in closed form and at
either sign of t, the distance between two flags read off one product of
their frames, and the module-free check, by flag minors, that boundary flags
move strictly inside.  A flowed flag is read off its frame, never off its
chart point: the chart has no inverse here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chevalley import generator_sum_spectrum
from .embedding import EigenChart, _float_lines, chart_coords, lambda_for
from .totpos import _float_add, _float_lower_samples, _run_word, _zero_masks, flag_minors, standard_word_w0

__all__ = [
    "DiagonalFlow",
    "flow_point",
    "has_overflow",
    "log_contraction",
    "CrossingResult",
    "default_ball_radius",
    "sphere_crossing",
    "Convergence",
    "converge",
    "fixed_flag",
    "flag_frame",
    "commutation_check",
    "invariance_check",
]


# exp(x) is a finite normal binary64 number wherever |x| < 708 (the range ends near -708.40 and 709.78)
_EXP_NORMAL, _TINY = 708.0, np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class DiagonalFlow:
    """The diagonal contraction with the given eigenvalue-drop rates.

    ``rates`` holds mu_k - mu_0 for k >= 1.  A genuinely contracting flow has
    all rates negative; the constructor does not enforce that, so degenerate
    specimens can be built deliberately as negative controls.
    """

    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=np.float64))
        self.rates.setflags(write=False)
        object.__setattr__(self, "_fastest", float(np.max(np.abs(self.rates), initial=0.0)))  # for _flowed

    @classmethod
    def from_chart(cls, chart: EigenChart) -> "DiagonalFlow":
        return cls(chart.mu[1:] - chart.mu[0])

    @property
    def ncoords(self) -> int:
        return self.rates.shape[0]

    @property
    def is_contractive(self) -> bool:
        return bool(np.all(self.rates < 0))

    @property
    def log_contraction(self) -> float:
        """log C = mu_0 - mu_1, the slowest decay rate."""
        return float(-np.max(self.rates))


def _chart_point(flow: DiagonalFlow, p) -> np.ndarray:
    """p as a float64 chart point of the flow; a wrong shape raises ``ValueError``."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (flow.ncoords,):
        raise ValueError(f"expected {flow.ncoords} chart coordinates, got {p.shape}")
    return p


def _flowed(flow: DiagonalFlow, p: np.ndarray, t: float) -> np.ndarray:
    """exp(t * rates) * p, each zero coordinate kept zero where exp overflows.

    Where exp(t * r_k) alone is not a finite normal number, coordinate k is
    sign(p_k) exp(log|p_k| + t r_k) instead, so that it is not lost to inf or
    rounded through a subnormal when the product itself is in range.  One test
    of |t| times the largest |r_k| takes the plain product everywhere else.
    """
    t = float(t)
    if abs(t) * flow._fastest < _EXP_NORMAL:
        return np.exp(t * flow.rates) * p
    factor = np.exp(t * flow.rates, out=np.zeros_like(p), where=p != 0)
    out = factor * p
    odd = (p != 0) & ((factor < _TINY) | (factor == math.inf))
    logs = np.log(np.abs(p[odd])) + np.broadcast_to(t * flow.rates, p.shape)[odd]
    out[odd] = np.copysign(np.exp(logs), p[odd])
    return out


def flow_point(flow: DiagonalFlow, t: float, p: np.ndarray) -> np.ndarray:
    """Evaluate f(t, p).  Very negative t may overflow to inf (not an error); zeros stay zero."""
    p = _chart_point(flow, p)
    with np.errstate(over="ignore", under="ignore"):
        return _flowed(flow, p, t)


def _norm_at(flow: DiagonalFlow, p: np.ndarray, t: float) -> float:
    """||f(t, p)|| summed at the power-of-two scale of its largest coordinate: exactly
    ``np.linalg.norm(flow_point(...))`` where that squared norm is a normal number, and
    free of overflow and underflow elsewhere.  Callers run it with over- and underflow ignored."""
    v = _flowed(flow, p, t)
    scale = math.frexp(np.abs(v).max())[1]
    w = np.ldexp(v, -scale)
    return float(np.ldexp(math.sqrt(w.dot(w)), scale))


def _time_at_norm(rates: np.ndarray, p: np.ndarray, target: float) -> float:
    """The time at which ||f(t, p)|| = target, for nonzero p, by Newton's method.

    Over the nonzero p_k, h(t) = log ||f(t, p)||^2 = logsumexp(log p_k^2 + 2 t r_k)
    is convex and decreasing, so Newton started left of the root climbs to it,
    until a step no longer moves t forward.  It starts at the latest time at which a
    single term reaches the goal: h exceeds every term, so that time is left of the
    root.  Each h is shifted by its largest term; callers run it with underflow ignored.
    """
    logs, slopes = 2.0 * np.log(np.abs(p[p != 0])), 2.0 * rates[p != 0]
    goal = 2.0 * math.log(target)

    def h(t):  # h(t) - goal and h'(t)
        terms = logs + t * slopes
        top = terms.max()
        weights = np.exp(terms - top)
        total = weights.sum()
        return top + math.log(total) - goal, weights.dot(slopes) / total

    t = np.max((goal - logs) / slopes)
    for _ in range(100):
        excess, slope = h(t)
        t_next = t - excess / slope
        if not t_next > t:
            break
        t = t_next
    return float(t)


def has_overflow(p: np.ndarray) -> bool:
    return not bool(np.all(np.isfinite(p)))


def log_contraction(n: int, J=()) -> float:
    """log C = mu_0 - mu_1 of the (n, J) module's chart, in closed form, with no module built.

    tau = P diag(d) P^T with d strictly decreasing, so rho(tau) on V_lambda has
    the eigenvalues <mu, d> over the weights mu.  The top one, <lambda, d>, is
    simple, and the next is reached at lambda - alpha_k for a recorded k (k not
    in J), so log C is the least d_k - d_{k+1} over those k.
    """
    d = generator_sum_spectrum(n)[0]
    return float(min(d[k - 1] - d[k] for k in range(1, n) if k not in J))


# ---------------------------------------------------------------------------
# crossing and convergence


@dataclass(frozen=True)
class CrossingResult:
    time: float
    point: np.ndarray
    radius: float
    residual: float


def _boundary_params(word, rng: np.random.Generator, count: int, full=()) -> np.ndarray:
    """The binary64 parameters of ``count`` lower-unipotent boundary flags along ``word``, ``(count,
    len(word))``, with 0.0 for a zeroed letter: row k zeroes a random nonempty set of letters,
    its size uniform on 1..len(word) and then a uniform subset of that size
    (:func:`~tnnflow.totpos._zero_masks`), and the rows of ``full`` zero every letter.

    Each array is one draw: the mask sizes, a row of uniforms whose ranks pick the
    zeroed letters, and ``rng.uniform(-3, 3, (count, len(word)))``, each kept draw
    ``math.exp`` of itself, as in :func:`~tnnflow.totpos._float_lower_samples`.
    Callers multiply the stack out in one binary64 run of :func:`~tnnflow.totpos._run_word`.
    """
    ell = len(word)
    zeroed = _zero_masks(rng, count, ell, ell)
    zeroed[list(full)] = True
    draws = rng.uniform(-3.0, 3.0, (count, ell)).tolist()
    return np.where(zeroed, 0.0, [[math.exp(x) for x in row] for row in draws])


def default_ball_radius(chart: EigenChart, rng: np.random.Generator) -> float:
    """A chart-adapted target radius: 1e-2 times the smallest boundary norm.

    Draws 25 boundary flags (factorizations with at least one zeroed
    parameter) as one batch (:func:`_boundary_params`), multiplies them out in
    one binary64 run of :func:`~tnnflow.totpos._run_word`, embeds and charts
    them as one stack, and returns a hundredth of the
    smallest chart norm seen.  The smallest boundary norm sets the scale below
    which the sphere is unambiguously "near the fixed point", so a small
    fraction of it makes a sensible default when the caller has none in mind.
    """
    n, word = chart.rep.n, standard_word_w0(chart.rep.n)
    steps = [("y", i, t) for i, t in zip(word.letters, _boundary_params(word, rng, 25).T)]
    lines = _float_lines(chart.rep, _run_word(n, 1, steps, np.tile(np.eye(n), (25, 1, 1)), _float_add))
    # per-row norms: np.linalg.norm(..., axis=1) rounds some differently, and moves the radius
    smallest = min(float(np.linalg.norm(p)) for p in chart_coords(chart, lines))
    if not math.isfinite(smallest) or smallest <= 0.0:
        raise RuntimeError("boundary sampling never produced a nonzero chart norm")
    return 1e-2 * smallest


def sphere_crossing(flow: DiagonalFlow, p: np.ndarray, radius: float, tol: float = 1e-12) -> CrossingResult:
    """The unique time at which the trajectory through p crosses the sphere.

    The chart norm along a contracting trajectory falls strictly from inf to
    0, so it meets the sphere once, at the time :func:`_time_at_norm` finds.
    The residual is the scaled norm :func:`_norm_at` there less the radius, so
    a squared norm past the range of binary64 does not spoil it; one that
    exceeds ``tol`` relative (as where the flowed point is not finite) raises
    ``ValueError``.
    """
    p = _chart_point(flow, p)
    if not flow.is_contractive:
        raise ValueError("sphere crossing needs a strictly contractive flow")
    if not np.any(p):
        raise ValueError("the zero point never crosses a positive sphere")
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    with np.errstate(over="ignore", under="ignore"):
        t_star = _time_at_norm(flow.rates, p, radius)
        point = flow_point(flow, t_star, p)
        residual = _norm_at(flow, p, t_star) - radius
    if not abs(residual) <= tol * radius:
        raise ValueError(f"the crossing misses the sphere of radius {radius!r} by {residual!r}")
    return CrossingResult(t_star, point, radius, residual)


@dataclass(frozen=True)
class Convergence:
    time: float
    final_norm: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.time <= self.bound * (1 + 1e-9) + 1e-9


def converge(flow: DiagonalFlow, p: np.ndarray, tol: float) -> Convergence:
    """The least binary64 time T with ``_norm_at(T) < tol``, with its a priori bound.

    T walks in ulps from the time :func:`_time_at_norm` finds, up until the norm
    is below tol and down while it still is, at most 64 each way: the least T
    unless binary64 rounds the flowed point far off, as where exp underflows.
    Past the bound, log(||p|| / tol) / logC, contraction alone forces the norm below tol.
    The final norm is the one the walk took at T; only an upward walk that runs
    out of steps, and so never took the norm at its last T, takes it once more.
    """
    if not flow.is_contractive:
        raise ValueError("convergence needs a strictly contractive flow")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    p = _chart_point(flow, p)
    with np.errstate(over="ignore", under="ignore"):
        norm0 = _norm_at(flow, p, 0.0)
        bound = max(0.0, math.log(max(norm0, 1e-300)) - math.log(tol)) / flow.log_contraction
        if norm0 < tol:
            return Convergence(0.0, norm0, bound)
        t = _time_at_norm(flow.rates, p, tol)
        for _ in range(64):
            norm = _norm_at(flow, p, t)
            if norm < tol:
                break
            t = math.nextafter(t, math.inf)
        else:
            norm = _norm_at(flow, p, t)
        for _ in range(64):
            below = _norm_at(flow, p, math.nextafter(t, -math.inf))
            if not below < tol:
                break
            t, norm = math.nextafter(t, -math.inf), below
        return Convergence(t, norm, bound)


def fixed_flag(n: int) -> np.ndarray:
    """The stationary flag, as an orthonormal frame: eigenvectors of the generator sum, top first.

    The generator sum on the defining representation is an irreducible Jacobi
    matrix, so its spectrum is simple and the flag is well defined; the frame
    is the closed-form eigenbasis of :func:`tnnflow.chevalley.generator_sum_spectrum`.
    Its leading k columns span the fixed k-plane, for every partial flag type.
    """
    return generator_sum_spectrum(n)[1]


def flag_frame(g: np.ndarray, t) -> np.ndarray:
    """The orthonormal frame, in the standard basis, of the flag of exp(t tau) g.

    ``g`` is one matrix or a stack, and ``t`` a scalar of either sign or one
    time >= 0 per matrix (a per-matrix time below 0 raises ``ValueError``).
    With tau = P diag(d) P^T in closed form
    (:func:`~tnnflow.chevalley.generator_sum_spectrum`), this is the graded
    step :func:`_graded_frame` on the QR frame Q_g of g; a caller that flows
    one stack to several times takes Q_g once and calls that step itself.
    """
    return _graded_frame(np.linalg.qr(g)[0], t, *generator_sum_spectrum(np.shape(g)[-1]))


def _graded_frame(qg: np.ndarray, t, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The frame p Q of the flag of p diag(e^{t d}) p^T Q_g, from the QR frame ``qg`` of g,
    for ``p`` orthogonal and ``d`` descending: the rows of p^T Q_g are scaled by
    e^{t (d - d_0)}, graded large to small, the case in which Householder QR stays
    accurate, so one stacked QR gives what flowing step by step and
    re-orthonormalizing gives.  A scalar t < 0 flows for -t on the reversed spectrum:
    with S the reversal, p diag(e^{t d}) p^T = (p S) diag(e^{-t (-S d)}) (p S)^T, and
    -S d descends.  A per-matrix time below 0 raises ``ValueError``."""
    if np.ndim(t):
        if not np.all(np.asarray(t) >= 0):
            raise ValueError("one time per matrix must be >= 0; flow a stack backward at one scalar time")
    elif t < 0:
        t, d, p = -t, -d[::-1], p[:, ::-1]
    scale = np.exp(np.multiply.outer(t, d - d[0]))[..., :, None]
    return p @ np.linalg.qr(scale * (p.T @ qg))[0]


def _frame_gaps(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Largest sine of the principal angles between the nested spans of two frames, per k.

    For square orthonormal frames and C = Qa^T Qb, ``||C[k:, :k]||_2`` is the
    sine of the largest principal angle between the spans of the leading k
    columns (Bjorck-Golub 1973), whatever basis each frame picks within its
    subspaces: it is the norm of the part of Qb_k outside the span of Qa_k.
    One product serves every k.  The last axis holds it for k = 1..n-1
    (n >= 2); stacks of frames keep their leading axes.
    """
    c = np.swapaxes(qa, -1, -2) @ qb
    return np.stack([np.linalg.norm(c[..., k:, :k], 2, axis=(-2, -1)) for k in range(1, c.shape[-1])], axis=-1)


def _frame_gap(qa: np.ndarray, qb: np.ndarray):
    """The largest of :func:`_frame_gaps` over k = 1..n-1, 0 iff the two flags agree:
    a float for one pair of frames, and for two stacks an array of one gap per pair."""
    worst = np.max(_frame_gaps(qa, qb), axis=-1)
    return float(worst) if qa.ndim == 2 else worst


# ---------------------------------------------------------------------------
# commutation between the two evaluation paths


def commutation_check(chart: EigenChart, times, rng: np.random.Generator, count: int) -> dict:
    """Compare flowing in the chart against acting on the flag by exp(t tau), at each of
    ``times``, on ``count`` lower-unipotent samples per time drawn from ``rng``.

    Path one: flow the frame of each sample's flag matrix (:func:`flag_frame`),
    embed, read chart coordinates.  Path two: embed first, read chart
    coordinates, flow diagonally.  The samples, ``count`` per time in order of
    ``times``, are the draws of as many :func:`~tnnflow.totpos.sample_params`
    calls, drawn at once and multiplied out once in binary64 for both paths
    (:func:`~tnnflow.totpos._float_lower_samples`): the check is a binary64
    gate and certifies no exact object.  Every time runs in one stack: one flow
    of the frames, each to its own time, one stacked call of the float line
    kernel and one :func:`chart_coords` for the acted frames and the samples
    together, and one diagonal flow per time.  Returns both
    ``(len(times), count, dim - 1)`` stacks of chart points, slice j for time j,
    and ``max_diff``, the max coordinate difference per time.  ``count`` below
    1 raises ``ValueError``, as an empty sample would certify nothing, and so
    do no times and t < 0.
    """
    if count < 1:
        raise ValueError(f"the commutation check needs count >= 1, got {count}")
    times = [float(t) for t in times]
    if not times or not all(t >= 0 for t in times):
        raise ValueError(f"flags flow forward only: t must be >= 0, at one time at least, got {times}")
    flow, m = DiagonalFlow.from_chart(chart), count * len(times)
    gs = _float_lower_samples(standard_word_w0(chart.rep.n), rng, m)
    points = chart_coords(chart, _float_lines(chart.rep, np.concatenate([flag_frame(gs, np.repeat(times, count)), gs])))
    p_acted = points[:m].reshape(len(times), count, -1)
    with np.errstate(over="ignore", under="ignore"):
        p_flowed = np.stack([_flowed(flow, p, t) for p, t in zip(points[m:].reshape(p_acted.shape), times)])
    return {"acted": p_acted, "flowed": p_flowed, "max_diff": np.max(np.abs(p_acted - p_flowed), axis=(1, 2)).tolist()}


# ---------------------------------------------------------------------------
# invariance: the boundary moves strictly inside


def _flag_margin(frames: np.ndarray, levels) -> np.ndarray:
    """Per frame of a stack, the least over ``levels`` of the level's least flag minor over
    its minor of largest magnitude (-inf for an all-zero level): positive iff every flag
    minor of the levels is, and blind, bit for bit, to the sign of a frame's columns."""
    worst = np.full(frames.shape[0], np.inf)
    for minors in flag_minors(frames, levels).values():
        scale = np.take_along_axis(minors, np.argmax(np.abs(minors), axis=1)[:, None], axis=1)
        margin = np.min(minors / np.where(scale == 0.0, 1.0, scale), axis=1) + 0.0  # -0.0 reads as 0.0
        worst = np.minimum(worst, np.where(scale[:, 0] == 0.0, -np.inf, margin))
    return worst


def invariance_check(n: int, J, t: float, rng: np.random.Generator, count: int = 100) -> dict:
    """Flow boundary flags of type (n, J) for time t and certify they land strictly inside.

    Boundary samples come from factorizations with zeroed parameters, drawn as
    one batch by :func:`_boundary_params` (the first sample zeroes every
    parameter: the base flag), and all of them, control included, are
    multiplied out in one binary64 run of :func:`~tnnflow.totpos._run_word`.  The
    samples flow as one stack of frames (:func:`flag_frame`), and each flowed frame's
    :func:`_flag_margin` on the recorded dimensions must clear 1e-12; no
    module is built.  On a type with a gap, such as (4, {2}), that is weaker
    than membership in Y_{>=0} (Bloch-Karp, arXiv:2206.05806).  The negative
    control, the first sample at t = 0, must fail; it shares the flowed
    frames' stack.  ``count`` below 1 raises ``ValueError``, since an empty
    sample would certify nothing, and so does t < 0.
    """
    if count < 1:
        raise ValueError(f"the invariance check needs count >= 1, got {count}")
    if not t >= 0:
        raise ValueError(f"flags flow forward only: t must be >= 0, got {t}")
    levels = sorted(lambda_for(n, J).support)
    word = standard_word_w0(n)
    # the negative control, drawn last: with t = 0 the base-flag sample stays on the boundary
    steps = [("y", i, t) for i, t in zip(word.letters, _boundary_params(word, rng, count + 1, full=(0, count)).T)]
    us = _run_word(n, 1, steps, np.tile(np.eye(n), (count + 1, 1, 1)), _float_add)
    frames = np.concatenate([flag_frame(us[:count], t), us[count:]])
    *margins, control = _flag_margin(frames, levels).tolist()
    worst = min(margins)
    return {
        "count": count,
        "all_interior": worst > 1e-12,
        "worst_margin": worst,
        "control_interior": control > 1e-12,  # must be False
        "passed": worst > 1e-12 and not control > 1e-12,
    }
