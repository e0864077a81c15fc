"""Acceptance gate: the ten headline checks, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion summary lines even when everything passes).
"""

import math
import subprocess
import sys
import time

import numpy as np

from tnnflow import linalg
from tnnflow.cells import bruhat_interval_counts, enumerate_cells
from tnnflow.chevalley import exp_generator_sum
from tnnflow.embedding import (
    build_rep,
    chart_coords,
    chart_line,
    eigenchart,
    lambda_for,
    line_of,
    weyl_dim,
)
from tnnflow.flow import (
    commutation_check,
    converge,
    flow_point,
    invariance_check,
    line_to_sl3_coords,
)
from tnnflow.folding import build_folding, fixed_locus_flow_check
from tnnflow.suite import CASES
from tnnflow.totpos import (
    Positivity,
    is_tnn_matrix,
    sample_params,
    standard_word_w0,
)

EXPECTED_VERTEX_LABELS = {"12,13", "23,13", "13,12", "13,23", "12,23", "23,12"}


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_fixed_point_reproduction(chart3, flow3):
    """20 random TNN flags all converge to the closed-form fixed flag."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    word = standard_word_w0(3)
    s = 2.0 + math.sqrt(2.0)
    target = np.array([1.0, math.sqrt(2.0), 1.0, 1.0, math.sqrt(2.0), 1.0]) / s
    worst = 0.0
    for k in range(20):
        if k % 2:
            # boundary flags: lower-unipotent with some parameters zeroed
            mask = sorted(rng.choice(3, size=int(rng.integers(1, 3)), replace=False))
            params = sample_params(word, rng, zero_mask=mask)
            p = chart_coords(chart3, line_of(chart3.rep, params, "lower"))
        else:
            params = sample_params(word, rng, group=True)
            p = chart_coords(chart3, line_of(chart3.rep, params, "group"))
        run = converge(flow3, p, tol=1e-9)
        assert run.within_bound
        limit = flow_point(flow3, run.time, p)
        coords = line_to_sl3_coords(chart3, chart_line(chart3, limit))
        got = np.array(list(coords.v) + list(coords.w), dtype=float)
        worst = max(worst, float(np.max(np.abs(got - target))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, "fixed point", ok, f"worst coord err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_contraction_bound(flow3):
    """1000 random (t, p): chart norm bounded by e^{-t logC} ||p|| + 1e-12."""
    rng = np.random.default_rng(7)
    logc = flow3.log_contraction
    violations = 0
    for _ in range(1000):
        t = float(rng.uniform(1e-6, 5.0))
        p = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=flow3.ncoords)
        if not np.any(p):
            continue
        lhs = float(np.linalg.norm(flow_point(flow3, t, p)))
        rhs = math.exp(-t * logc) * float(np.linalg.norm(p)) + 1e-12
        violations += lhs > rhs
    report(2, "contraction", violations == 0, f"{violations} violations")


def test_criterion_03_semigroup_law(flow3):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        t1, t2 = rng.uniform(0.0, 5.0, size=2)
        p = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=flow3.ncoords)
        once = flow_point(flow3, t1 + t2, p)
        twice = flow_point(flow3, t2, flow_point(flow3, t1, p))
        denom = max(float(np.linalg.norm(once)), 1e-300)
        worst = max(worst, float(np.linalg.norm(once - twice)) / denom)
    report(3, "semigroup", worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_04_commutation_identity(chart3, chart42):
    """Acting by exp(t tau) and flowing in the chart give the same point."""
    charts = {
        (3, ()): chart3,
        (3, (2,)): eigenchart(build_rep(lambda_for(3, (2,)))),
        (4, (2,)): chart42,
    }
    rng = np.random.default_rng(9)
    worst = 0.0
    for (n, J), chart in charts.items():
        word = standard_word_w0(n)
        for t in (0.1, 1.0):
            for _ in range(100):
                params = sample_params(word, rng)
                result = commutation_check(chart, params, t)
                worst = max(worst, result["max_diff"])
    report(4, "commutation", worst <= 1e-8, f"worst diff {worst:.2e}")


def test_criterion_05_invariance(rep3, rep42):
    """Boundary flags flow strictly inside; the t=0 control stays outside."""
    reps = {(3, ()): rep3, (3, (2,)): build_rep(lambda_for(3, (2,))), (4, (2,)): rep42}
    rng = np.random.default_rng(10)
    all_ok = True
    details = []
    for row in (row for row in CASES if row.gate == "invariance"):
        out = invariance_check(reps[(row.n, row.J)], row.t, rng, count=100)
        all_ok = all_ok and out["passed"] and not out["control_interior"]
        details.append(f"({row.n},{list(row.J)}) margin {out['worst_margin']:.1e}")
    report(5, "invariance", all_ok, "; ".join(details))


def test_criterion_06_exp_tau_totally_positive():
    g = exp_generator_sum(3, 1.0)
    verdict = is_tnn_matrix(linalg.rationalize(g.entries))
    report(6, "exp TP", verdict is Positivity.TOTALLY_POSITIVE, verdict.value)


def test_criterion_07_cell_census(census3):
    started = time.perf_counter()
    census = enumerate_cells()  # fresh run, not the session fixture
    elapsed = time.perf_counter() - started
    f = census.f_vector
    ok = (
        len(census.cells) == 19
        and f == (6, 8, 4, 1)
        and f == bruhat_interval_counts(3)
        and set(census.vertex_labels()) == EXPECTED_VERTEX_LABELS
        and f[0] - f[1] + f[2] == 2
        and elapsed < 10.0
    )
    report(7, "cell census", ok, f"f = {f}, {elapsed:.2f}s")


def test_criterion_08_representation_dimensions(rep3, rep42, chart3, chart42):
    ok = (
        rep3.dim == 8 == weyl_dim(lambda_for(3, ()))
        and rep42.dim == 15 == weyl_dim(lambda_for(4, (2,)))
        and chart3.mu[0] > chart3.mu[1]
        and chart42.mu[0] > chart42.mu[1]
    )
    report(8, "dimensions", ok, f"dims {rep3.dim}, {rep42.dim}")


def test_criterion_09_folding():
    folding = build_folding(4)
    rng = np.random.default_rng(11)
    out = fixed_locus_flow_check(folding, rng, times=(0.1, 1.0, 5.0), count=100, tol=1e-10)
    ok = out["passed"] and out["control_broken"]
    report(9, "folding", ok, f"worst gap {out['worst_gap']:.2e}")


def test_criterion_10_deterministic_reports():
    cmd = [sys.executable, "-m", "tnnflow", "verify", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    report(10, "determinism", ok, f"{len(first.stdout)} bytes, identical")
