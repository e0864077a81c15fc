"""Contractive dynamics on flag varieties in eigenchart coordinates.

Acting on a flag by exp(t * generator_sum) becomes, in the affine eigenchart
of the embedding module, the diagonal map

    f(t, p)_k = exp(t * (mu_k - mu_0)) * p_k,

whose rates are the eigenvalue drops below the top of the spectrum.  All
rates are negative, so every chart point is pulled to the origin -- the
stationary flag -- at exponential speed governed by the spectral gap.
This module houses the diagonal flow itself, a verifier for the axioms a
contracting flow must satisfy, sphere-crossing and convergence reporters,
the invariance check that boundary flags move strictly inside, and, off the
chart, :func:`flag_frame`, which flows a flag's frame in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .chevalley import FLOAT, GroupElement, exp_generator_sum, generator_sum_spectrum
from .embedding import EigenChart, chart_coords, line_of
from .totpos import (
    FactorizationParams,
    Membership,
    Sl3Coords,
    sample_params,
    sample_positive,
    sl3_coords,
    sl3_membership,
    standard_word_w0,
)

__all__ = [
    "DiagonalFlow",
    "flow_point",
    "trajectory",
    "has_overflow",
    "AxiomCheck",
    "AxiomReport",
    "verify_axioms",
    "CrossingResult",
    "default_ball_radius",
    "sphere_crossing",
    "Convergence",
    "converge",
    "fixed_flag",
    "flag_frame",
    "line_to_sl3_coords",
    "commutation_check",
    "invariance_check",
]


@dataclass(frozen=True, eq=False)
class DiagonalFlow:
    """The diagonal contraction with the given eigenvalue-drop rates.

    ``rates`` holds mu_k - mu_0 for k >= 1.  A genuinely contracting flow has
    all rates negative; the constructor does not enforce that, so degenerate
    specimens can be built deliberately and fed to :func:`verify_axioms` as
    negative controls.
    """

    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=np.float64))
        self.rates.setflags(write=False)

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


def flow_point(flow: DiagonalFlow, t: float, p: np.ndarray) -> np.ndarray:
    """Evaluate f(t, p).  Very negative t may overflow to inf (not an error)."""
    p = _chart_point(flow, p)
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(float(t) * flow.rates) * p


def _norm_at(rates: np.ndarray, p: np.ndarray, t: float) -> float:
    """||f(t, p)|| for a float64 point p, bit for bit ``np.linalg.norm(flow_point(...))``.

    numpy's 1-d norm is ``sqrt(x.dot(x))``; this skips the argument checks
    of :func:`flow_point`.  An overflowed norm is inf, and brackets as such.
    The caller runs it under ``np.errstate(over="ignore", under="ignore")``,
    entered once around a whole bisection rather than on every evaluation.
    """
    v = np.exp(float(t) * rates) * p
    return math.sqrt(v.dot(v))


def has_overflow(p: np.ndarray) -> bool:
    return not bool(np.all(np.isfinite(p)))


def trajectory(flow: DiagonalFlow, p: np.ndarray, times) -> np.ndarray:
    """Sample the flow at the given times; rows are chart points."""
    return np.array([flow_point(flow, t, p) for t in times])


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    samples: int
    worst: float


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        return next(c for c in self.checks if c.name == name)


def _sample_point(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    while True:
        p = rng.uniform(-scale, scale, size=n)
        if np.linalg.norm(p) > 1e-3:
            return p


def verify_axioms(flow: DiagonalFlow, rng: np.random.Generator, samples: int = 1000) -> AxiomReport:
    """Check the contracting-flow axioms on random samples.

    Points are drawn uniformly from the cube [-10, 10]^n, and the times of
    the continuity and contraction checks from [0, 5].

    * continuity -- joint local Lipschitz bound with the theoretical constant;
    * identity   -- f(0, p) = p exactly;
    * semigroup  -- f(t1+t2, p) = f(t2, f(t1, p)) to 1e-12 relative;
    * contraction -- ||f(t, p)|| <= exp(-t logC) ||p|| + 1e-12 and strictly
      decreasing for t > 0.

    The deterministic coordinate axes are appended to the random batch so a
    flow with a flat direction cannot slip through on sampling luck.
    """
    n = flow.ncoords
    rates = flow.rates
    t_max = 5.0
    amp = math.exp(t_max * max(0.0, float(np.max(rates))))
    max_rate = float(np.max(np.abs(rates)))

    def batch():
        pts = [_sample_point(rng, n, 10.0) for _ in range(samples)]
        pts.extend(np.eye(n))  # one per coordinate axis
        return pts

    # identity
    worst_id = 0.0
    id_points = batch()
    for p in id_points:
        worst_id = max(worst_id, float(np.max(np.abs(flow_point(flow, 0.0, p) - p))))
    identity = AxiomCheck("identity", worst_id == 0.0, len(id_points), worst_id)

    # continuity
    worst_cont = -math.inf
    cont_ok = True
    cont_points = batch()
    for p in cont_points:
        t = rng.uniform(0.0, t_max)
        dt = rng.uniform(-1e-6, 1e-6)
        if t + dt < 0:
            dt = -dt
        dp = rng.uniform(-1e-6, 1e-6, size=n)
        lhs = float(np.linalg.norm(flow_point(flow, t + dt, p + dp) - flow_point(flow, t, p)))
        rhs = amp * float(np.linalg.norm(dp)) + abs(dt) * max_rate * amp * float(np.linalg.norm(p))
        margin = rhs * (1 + 1e-9) + 1e-12 - lhs
        if margin < worst_cont or worst_cont == -math.inf:
            worst_cont = margin
        if margin < 0:
            cont_ok = False
    continuity = AxiomCheck("continuity", cont_ok, len(cont_points), worst_cont)

    # semigroup
    worst_semi = 0.0
    semi_points = batch()
    for p in semi_points:
        t1 = rng.uniform(-3.0, 3.0)
        t2 = rng.uniform(-3.0, 3.0)
        once = flow_point(flow, t1 + t2, p)
        twice = flow_point(flow, t2, flow_point(flow, t1, p))
        scale = max(float(np.linalg.norm(once)), float(np.linalg.norm(twice)), 1e-300)
        worst_semi = max(worst_semi, float(np.linalg.norm(once - twice)) / scale)
    semigroup = AxiomCheck("semigroup", worst_semi <= 1e-12, len(semi_points), worst_semi)

    # contraction
    logc = flow.log_contraction
    worst_contr = -math.inf
    contr_ok = True
    contr_points = batch()
    for p in contr_points:
        t = rng.uniform(0.0, t_max)
        t = max(t, 1e-6)  # strictly positive time for the strict-decrease clause
        norm_p = float(np.linalg.norm(p))
        norm_f = float(np.linalg.norm(flow_point(flow, t, p)))
        bound = math.exp(-t * logc) * norm_p + 1e-12
        margin = min(bound - norm_f, norm_p - norm_f)
        if margin < worst_contr or worst_contr == -math.inf:
            worst_contr = margin
        if norm_f > bound or not norm_f < norm_p:  # a margin of 0 from the strict decrease fails
            contr_ok = False
    contraction = AxiomCheck("contraction", contr_ok, len(contr_points), worst_contr)

    return AxiomReport((continuity, identity, semigroup, contraction))


# ---------------------------------------------------------------------------
# crossing and convergence


@dataclass(frozen=True)
class CrossingResult:
    time: float
    point: np.ndarray
    radius: float
    residual: float


def default_ball_radius(chart: EigenChart, rng: np.random.Generator) -> float:
    """A chart-adapted target radius: 1e-2 times the smallest boundary norm.

    Samples 25 boundary flags (factorizations with at least one zeroed
    parameter), embeds them, and returns a hundredth of the smallest chart
    norm seen.  The smallest boundary norm sets the scale below which the
    sphere is unambiguously "near the fixed point", so a small fraction of it
    makes a sensible default when the caller has no radius in mind.
    """
    word = standard_word_w0(chart.rep.n)
    ell = len(word)
    smallest = math.inf
    for _ in range(25):
        size = int(rng.integers(1, ell + 1))
        mask = sorted(rng.choice(ell, size=size, replace=False).tolist())
        u = sample_positive(sample_params(word, rng, zero_mask=mask), "lower")
        p = chart_coords(chart, line_of(chart.rep, u.to_float()))
        smallest = min(smallest, float(np.linalg.norm(p)))
    if not math.isfinite(smallest) or smallest <= 0.0:
        raise RuntimeError("boundary sampling never produced a nonzero chart norm")
    return 1e-2 * smallest


def sphere_crossing(flow: DiagonalFlow, p: np.ndarray, radius: float, tol: float = 1e-12) -> CrossingResult:
    """The unique time at which the trajectory through p crosses the sphere.

    The chart norm along a contracting trajectory is strictly decreasing and
    spans (0, inf), so a bracket always exists; it is found by doubling and
    then refined by at most 200 bisections until the norm matches the radius
    to ``tol`` relative.  A crossing that still misses the sphere by more
    than that (the norm overflows or underflows binary64 on the way) raises
    ``ValueError``.
    """
    p = np.asarray(p, dtype=np.float64)
    if not flow.is_contractive:
        raise ValueError("sphere crossing needs a strictly contractive flow")
    if np.linalg.norm(p) == 0.0:
        raise ValueError("the zero point never crosses a positive sphere")
    if radius <= 0:
        raise ValueError("radius must be positive")
    p = _chart_point(flow, p)
    rates = flow.rates
    lo, hi = 0.0, 0.0  # norm(lo) >= radius >= norm(hi)
    with np.errstate(over="ignore", under="ignore"):
        start = _norm_at(rates, p, 0.0)
        if start >= radius:
            hi = 1.0
            while _norm_at(rates, p, hi) > radius:
                hi *= 2.0
                if hi > 2.0**60:
                    raise RuntimeError("failed to bracket the crossing")
        else:
            lo = -1.0
            while _norm_at(rates, p, lo) < radius:
                lo *= 2.0
                if lo < -(2.0**60):
                    raise RuntimeError("failed to bracket the crossing")
        t_star = lo
        for _ in range(200):
            t_star = (lo + hi) / 2.0
            value = _norm_at(rates, p, t_star)
            if abs(value - radius) <= tol * radius:
                break
            if t_star == lo or t_star == hi:  # every later midpoint is t_star again
                break
            if value > radius:
                lo = t_star
            else:
                hi = t_star
        residual = _norm_at(rates, p, t_star) - radius
    if not abs(residual) <= tol * radius:
        raise ValueError(f"the crossing misses the sphere of radius {radius!r} by {residual!r}")
    return CrossingResult(t_star, flow_point(flow, t_star, p), radius, residual)


@dataclass(frozen=True)
class Convergence:
    time: float
    final_norm: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.time <= self.bound * (1 + 1e-9) + 1e-9


def converge(flow: DiagonalFlow, p: np.ndarray, tol: float) -> Convergence:
    """Smallest sampled time T with ||f(T, p)|| < tol, with its a priori bound.

    The bound is log(||p|| / tol) / logC: past it the contraction inequality
    alone forces the norm below tol.
    """
    if not flow.is_contractive:
        raise ValueError("convergence needs a strictly contractive flow")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    p = np.asarray(p, dtype=np.float64)
    norm0 = float(np.linalg.norm(p))
    bound = max(0.0, math.log(max(norm0, 1e-300) / tol)) / flow.log_contraction
    if norm0 < tol:
        return Convergence(0.0, norm0, bound)
    p = _chart_point(flow, p)
    rates = flow.rates
    hi = 1.0
    with np.errstate(over="ignore", under="ignore"):
        while _norm_at(rates, p, hi) >= tol:
            hi *= 2.0
            if hi > 2.0**60:
                raise RuntimeError("trajectory failed to enter the target ball")
        lo = 0.0 if hi == 1.0 else hi / 2.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi:  # the bracket cannot shrink: norm(hi) < tol <= norm(lo)
                break
            if _norm_at(rates, p, mid) < tol:
                hi = mid
            else:
                lo = mid
        return Convergence(hi, _norm_at(rates, p, hi), bound)


def fixed_flag(n: int) -> np.ndarray:
    """The stationary flag, as an orthonormal frame: eigenvectors of the generator sum, top first.

    The generator sum on the defining representation is an irreducible Jacobi
    matrix, so its spectrum is simple and the flag is well defined; the frame
    is the closed-form eigenbasis of :func:`tnnflow.chevalley.generator_sum_spectrum`.
    Its leading k columns span the fixed k-plane, for every partial flag type.
    """
    return generator_sum_spectrum(n)[1]


def flag_frame(g: np.ndarray, t, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The orthonormal frame Q, in p's coordinates, of the flag of p diag(e^{t d}) p^T g.

    ``g`` is one matrix or a stack, ``t >= 0`` a scalar or one time per
    matrix, ``p`` orthogonal and ``d`` descending, as from
    :func:`~tnnflow.chevalley.generator_sum_spectrum`.  The rows of p^T Q_g,
    for the QR frame Q_g of g, are scaled by e^{t (d - d_0)}, graded large to
    small: the case in which Householder QR stays accurate, so one stacked QR
    gives what flowing step by step and re-orthonormalizing gives.
    """
    scale = np.exp(np.multiply.outer(t, d - d[0]))[..., :, None]
    return np.linalg.qr(scale * (p.T @ np.linalg.qr(g)[0]))[0]


def _frame_gaps(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Largest sine of the principal angles between the nested spans of two frames, per k.

    For orthonormal frames, ``||Qb_k - Qa_k Qa_k^T Qb_k||_2`` is the sine of
    the largest principal angle between the spans of the leading k columns
    (Bjorck-Golub 1973), whatever basis each frame picks within its
    subspaces.  The last axis holds it for k = 1..n-1 (n >= 2); stacks of
    frames keep their leading axes.
    """
    def gap(k):
        a, b = qa[..., :k], qb[..., :k]
        return np.linalg.norm(b - a @ (np.swapaxes(a, -1, -2) @ b), 2, axis=(-2, -1))

    return np.stack([gap(k) for k in range(1, qa.shape[-2])], axis=-1)


def _frame_gap(qa: np.ndarray, qb: np.ndarray):
    """The largest of :func:`_frame_gaps` over k = 1..n-1, 0 iff the two flags agree:
    a float for one pair of frames, and for two stacks an array of one gap per pair."""
    worst = np.max(_frame_gaps(qa, qb), axis=-1)
    return float(worst) if qa.ndim == 2 else worst


# ---------------------------------------------------------------------------
# commutation between the two evaluation paths


def line_to_sl3_coords(chart: EigenChart, line: np.ndarray) -> Sl3Coords:
    """Recover (v, w) coordinates of a complete SL(3) flag from its line.

    The module sits inside (defining) x (wedge^2); the ambient vector of a
    decomposable line is a rank-one 3x3 matrix v * z^T whose factors are the
    line of the flag and the Pluecker vector of its plane.  The factors are
    split off with an SVD, which also certifies decomposability.
    """
    rep = chart.rep
    if rep.n != 3 or rep.factors != (1, 2):
        raise ValueError("flag recovery is implemented for the complete SL(3) module")
    big = rep.float_basis().T @ np.asarray(line, dtype=np.float64)
    m = big.reshape(3, 3)
    u, s, vt = np.linalg.svd(m)
    if s[0] == 0.0 or s[1] > 1e-8 * s[0]:
        raise ValueError("line is not decomposable: not the image of a flag")
    v_raw = u[:, 0]
    z = vt[0]  # Pluecker coordinates (12, 13, 23) of the plane
    w_raw = np.array([z[2], z[1], z[0]])
    v = v_raw / v_raw.sum()
    w = w_raw / w_raw.sum()
    return Sl3Coords(tuple(v), tuple(w), FLOAT)


def commutation_check(chart: EigenChart, params, t: float) -> dict:
    """Compare flowing in the chart against acting on the flag by exp(t tau).

    Path one: act on the lower-unipotent flag matrix, embed, read chart
    coordinates.
    Path two: embed first, read chart coordinates, flow diagonally.
    Both are returned with their max coordinate difference.  ``params`` is
    one factorization or a sequence of them; exp(t tau) is built once for
    the whole sequence, whose chart points come back as rows.
    """
    single = isinstance(params, FactorizationParams)
    batch = [params] if single else list(params)
    if not batch:
        raise ValueError("the commutation check needs at least one sample")
    flow = DiagonalFlow.from_chart(chart)
    exp_t = exp_generator_sum(chart.rep.n, t).entries
    acted, flowed = [], []
    for p in batch:
        g = sample_positive(p, "lower")
        moved = GroupElement(exp_t @ linalg.to_float(g.entries), FLOAT)
        acted.append(chart_coords(chart, line_of(chart.rep, moved)))
        flowed.append(flow_point(flow, t, chart_coords(chart, line_of(chart.rep, g))))
    p_acted, p_flowed = np.array(acted), np.array(flowed)
    diff = float(np.max(np.abs(p_acted - p_flowed)))
    if single:
        p_acted, p_flowed = p_acted[0], p_flowed[0]
    return {"acted": p_acted, "flowed": p_flowed, "max_diff": diff}


# ---------------------------------------------------------------------------
# invariance: the boundary moves strictly inside


def _interior_margin(rep, g_float: GroupElement) -> float:
    """Positivity margin of the embedded line: min coord over max |coord|.

    Strictly positive margin certifies an interior flag; the margin vanishes
    (some weight coordinate is zero) on the boundary.
    """
    vec = line_of(rep, g_float)
    scale = float(np.max(np.abs(vec)))
    if scale == 0.0:
        return -math.inf
    return float(np.min(vec)) / scale


def invariance_check(rep, t: float, rng: np.random.Generator, count: int = 100) -> dict:
    """Flow boundary flags for time t and certify they land strictly inside.

    Boundary samples come from factorizations with zeroed parameters (the
    first sample zeroes every parameter: the base flag).  For each sample the
    line-coordinate positivity margin must clear 1e-12; for the
    complete SL(3) module the (v, w) membership oracle, read straight off the
    columns of exp(t tau) u, must simultaneously say PositivePart.  The
    negative control re-runs the first sample at t = 0, where the certificate
    must fail.  ``count`` below 1 raises ``ValueError``: an empty sample
    would certify nothing.
    """
    if count < 1:
        raise ValueError(f"the invariance check needs count >= 1, got {count}")
    word = standard_word_w0(rep.n)
    sl3 = rep.n == 3 and rep.factors == (1, 2)
    ell = len(word)
    exp_t = exp_generator_sum(rep.n, t).entries
    all_interior = True
    worst = math.inf
    for k in range(count):
        if k == 0:
            mask = list(range(ell))
        else:
            size = int(rng.integers(1, ell + 1))
            mask = sorted(rng.choice(ell, size=size, replace=False).tolist())
        params = sample_params(word, rng, zero_mask=mask)
        u = sample_positive(params, "lower")
        moved = exp_t @ linalg.to_float(u.entries)
        margin = _interior_margin(rep, GroupElement(moved, FLOAT))
        interior = margin > 1e-12
        if sl3:
            membership = sl3_membership(sl3_coords(moved), tol=1e-10)
            interior = interior and membership is Membership.POSITIVE_PART
        worst = min(worst, margin)
        all_interior = all_interior and interior

    # negative control: with t = 0 the base-flag sample stays on the boundary
    base = sample_positive(sample_params(word, rng, zero_mask=list(range(ell))), "lower").to_float()
    control_interior = _interior_margin(rep, base) > 1e-12
    if sl3:
        membership = sl3_membership(sl3_coords(base.entries), tol=1e-10)
        control_interior = control_interior and membership is Membership.POSITIVE_PART

    return {
        "count": count,
        "all_interior": all_interior,
        "worst_margin": worst,
        "control_interior": control_interior,  # must be False
        "passed": all_interior and not control_interior,
    }
