#!/usr/bin/env python3
"""Watch random totally nonnegative flags contract onto the fixed flag.

For each start the script prints the chart norm along the trajectory and the
(v, w) coordinates of the flowed flag at the convergence time T next to the
closed-form limit 1/(2+sqrt 2) = 0.29289..., sqrt2/(2+sqrt 2) = 0.41421....
The coordinates are read off the flowed frame P Q, Q = flag_frame(g, T, d, P).
It exits 1 if any of them misses the limit by more than 1e-8.

Usage: python scripts/fixed_point_demo.py [--seed N] [--starts K]
"""

import argparse
import math

import numpy as np

from tnnflow.chevalley import generator_sum_spectrum
from tnnflow.embedding import build_rep, chart_coords, eigenchart, lambda_for, line_of
from tnnflow.flow import DiagonalFlow, converge, flag_frame, trajectory
from tnnflow.totpos import sample_params, sample_positive, sl3_coords, standard_word_w0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--starts", type=int, default=3)
    args = ap.parse_args()

    rep = build_rep(lambda_for(3, ()))
    chart = eigenchart(rep)
    flow = DiagonalFlow.from_chart(chart)
    rng = np.random.default_rng(args.seed)
    word = standard_word_w0(3)

    d, frame = generator_sum_spectrum(3)
    s = 2.0 + math.sqrt(2.0)
    target = np.array([1.0, math.sqrt(2.0), 1.0]) / s
    print(f"target: v = w = ({target[0]:.11f}, {target[1]:.11f}, {target[2]:.11f})")
    print(f"contraction rate logC = {flow.log_contraction:.11f}\n")

    worst = 0.0
    for k in range(args.starts):
        g = sample_positive(sample_params(word, rng, group=True), "group")
        p = chart_coords(chart, line_of(rep, g))
        run = converge(flow, p, tol=1e-9)
        times = np.linspace(0.0, run.time, 6)
        norms = np.linalg.norm(trajectory(flow, p, times), axis=1)
        print(f"start {k}: ||p|| along t = {', '.join(f'{x:.3g}' for x in norms)}")
        coords = sl3_coords(frame @ flag_frame(g.to_float().entries, run.time, d, frame))
        miss = float(np.max(np.abs(np.array([coords.v, coords.w], dtype=np.float64) - target)))
        worst = max(worst, miss)
        v = ", ".join(f"{float(x):.11f}" for x in coords.v)
        w = ", ".join(f"{float(x):.11f}" for x in coords.w)
        print(f"  T = {run.time:.4f} (bound {run.bound:.4f})")
        print(f"  v = ({v})\n  w = ({w})\n  largest miss of the target: {miss:.2e}")
    if worst > 1e-8:
        print(f"a limit misses the target by {worst:.2e} > 1e-8")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
