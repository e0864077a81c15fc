"""The three benchmark workloads: their inputs, operations and correctness gates.

Every workload is built from a seed alone and runs closed-loop in one process
and one thread: the next operation starts when the previous one returns.  An
operation calls only public ``tnnflow`` entry points, looked up on the module
object at call time so that the traced run sees the instrumented functions.

* ``verify`` -- the full property suite, ``tnnflow verify``, over a list of
  seeds.  It is what users run and it touches every layer.
* ``ladder`` -- module construction, the eigenchart, both ``line_of`` paths and
  the flow, rung by rung over a ladder of modules.  Exact dense module
  construction dominates; no positivity certificate is issued.
* ``certify`` -- ``tnnflow sample`` for n = 3..6 on the group (TP expected) and
  lower (TNN expected) sides, plus column-swapped negative controls (NEITHER
  expected, via the early exit).  All-minors certification dominates; no module
  or chart is built.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WHY = {
    "verify": "the command users run: every section of the certificate, so it touches every layer",
    "ladder": "dense exact module construction and ambient line_of dominate; no positivity certificate",
    "certify": "all-minors positivity certification dominates; never builds a module or a chart",
}

# (n, J) rungs in ladder order, named as in the per-layer metrics.  Larger
# modules are left out because one call to build them is too long to time
# steadily on a shared machine, where speed drifts by 20% over seconds:
# (5, {1, 2}) takes 7-13 s, (4, ()) about 44 s and (5, {1, 4}) about 66 s.
RUNGS = (("n4J2", 4, (2,)), ("n4J1", 4, (1,)), ("n5J23", 5, (2, 3)))
RUNG_NAMES = tuple(name for name, _, _ in RUNGS)
CERTIFY_SIZES = (3, 4, 5, 6)
VERIFY_SEEDS = 4
LADDER_FLAGS = 2
CONTROLS_PER_SIZE = 2
CERTIFY_SEEDS = 6


def import_tnnflow(root: Path):
    """Import ``tnnflow`` from ``root/src``; refuse any other copy."""
    src = root / "src"
    if not (src / "tnnflow" / "__init__.py").is_file():
        raise ImportError(f"no tnnflow sources under {src}")
    sys.path.insert(0, str(src))
    import tnnflow
    import tnnflow.cli

    if Path(tnnflow.__file__).resolve().parent != (src / "tnnflow").resolve():
        raise ImportError(f"imported tnnflow from {tnnflow.__file__}, not {src}")
    return tnnflow


def rung_of(rep) -> str | None:
    """The ladder rung name of a module, or None if it is not on the ladder."""
    J = tuple(k for k in range(1, rep.n) if rep.weight.coeffs[k - 1] == 0)
    for name, n, rung_J in RUNGS:
        if (n, rung_J) == (rep.n, J):
            return name
    return None


@dataclass
class Tally:
    """Operations attempted and failed (a failed gate or an exception), with the
    first failure kept for the log."""

    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    def crash(self, what: str) -> None:
        self.attempted += 1
        self._fail(what + "\n" + traceback.format_exc())

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = what


class Samples(dict):
    """Wall times of timed steps: step name -> list of seconds."""

    def add(self, step: str, seconds: float) -> None:
        self.setdefault(step, []).append(seconds)


# ---------------------------------------------------------------------------
# inputs


def make_inputs(tnnflow, workload: str, seed: int, size: str, out_dir: Path) -> dict:
    """Everything a workload needs, generated from ``seed`` only."""
    if workload == "verify":
        count = 1 if size == "min" else VERIFY_SEEDS
        return {"seeds": [seed + k for k in range(count)], "out": out_dir / "verify.json"}
    if workload == "ladder":
        return _ladder_inputs(tnnflow, seed, size)
    if workload == "certify":
        return _certify_inputs(tnnflow, seed, size, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def _ladder_inputs(tnnflow, seed: int, size: str) -> dict:
    from tnnflow import linalg
    from tnnflow.chevalley import FLOAT, GroupElement

    rungs = RUNGS[:1] if size == "min" else RUNGS
    flags = 1 if size == "min" else LADDER_FLAGS
    out = []
    for k, (name, n, J) in enumerate(rungs):
        rng = np.random.default_rng([seed, k])
        word = tnnflow.standard_word_w0(n)
        embeds = []
        for _ in range(flags):
            params = tnnflow.sample_params(word, rng)
            exact = tnnflow.sample_positive(params, "lower")
            embeds.append((params, GroupElement(linalg.to_float(exact.entries), FLOAT)))
        out.append({"name": name, "weight": tnnflow.lambda_for(n, J), "flags": embeds})
    return {"rungs": out}


def _certify_inputs(tnnflow, seed: int, size: str, out_dir: Path) -> dict:
    sizes = CERTIFY_SIZES[:2] if size == "min" else CERTIFY_SIZES
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=CERTIFY_SEEDS)]
    controls = {}
    for n in sizes:
        word = tnnflow.standard_word_w0(n)
        pool = []
        for _ in range(CONTROLS_PER_SIZE):
            g = tnnflow.sample_positive(tnnflow.sample_params(word, rng, group=True), "group")
            j = int(rng.integers(0, n - 1))
            swapped = g.entries.copy()
            swapped[:, [j, j + 1]] = swapped[:, [j + 1, j]]
            pool.append(swapped)
        controls[n] = pool
    return {"sizes": sizes, "seeds": seeds, "controls": controls, "out": out_dir / "sample.json"}


# ---------------------------------------------------------------------------
# operations: each runs one unit of work, times it, and gates its output


def verify_op(tnnflow, inputs: dict, k: int, samples: Samples, tally: Tally, reports: dict) -> None:
    """One ``tnnflow verify`` command; a repeated seed must repeat its bytes."""
    seeds, out = inputs["seeds"], inputs["out"]
    seed = seeds[k % len(seeds)]
    argv = ["verify", "--seed", str(seed), "--out", str(out)]
    try:
        t0 = time.perf_counter()
        rc = tnnflow.cli.main(argv)
        samples.add("verify", time.perf_counter() - t0)
        data = out.read_bytes()
        ok = rc == 0 and json.loads(data)["passed"] is True
        ok = ok and reports.setdefault(seed, data) == data
        tally.check(ok, f"verify --seed {seed}: exit {rc}, passed/repeat gate failed")
    except Exception:
        tally.crash(f"verify --seed {seed} raised")


def ladder_op(tnnflow, inputs: dict, k: int, samples: Samples, tally: Tally) -> None:
    """One rung: build the module, chart it, embed the flags both ways, flow them."""
    rung = inputs["rungs"][k % len(inputs["rungs"])]
    emb, flow = tnnflow.embedding, tnnflow.flow
    try:
        t0 = time.perf_counter()
        rep = emb.build_rep(rung["weight"])
        dim_ok = rep.dim == emb.weyl_dim(rung["weight"])
        chart = emb.eigenchart(rep)
        diagonal = flow.DiagonalFlow.from_chart(chart)
        results = []
        for params, g_float in rung["flags"]:
            p_exact = emb.chart_coords(chart, emb.line_of(rep, params, "lower"))
            p_float = emb.chart_coords(chart, emb.line_of(rep, g_float))
            run = flow.converge(diagonal, p_exact, tol=1e-9)
            radius = 1e-2 * float(np.linalg.norm(p_exact))
            crossing = flow.sphere_crossing(diagonal, p_exact, radius)
            results.append((p_exact, p_float, run, crossing))
        samples.add(rung["name"], time.perf_counter() - t0)
    except Exception:
        tally.crash(f"ladder rung {rung['name']} raised")
        return
    gates = [(dim_ok, f"dim {rep.dim} != Weyl dim")]
    for p_exact, p_float, run, crossing in results:
        scale = max(float(np.max(np.abs(p_exact))), 1e-300)
        agree = float(np.max(np.abs(p_exact - p_float))) <= 1e-9 * scale
        gates.append((agree, "exact and float chart coordinates differ beyond 1e-9 relative"))
        gates.append((run.within_bound, "convergence past its a priori bound"))
        gates.append((abs(crossing.residual) <= 1e-9 * crossing.radius, "sphere crossing off the sphere"))
    failed = [what for ok, what in gates if not ok]
    tally.check(not failed, f"ladder rung {rung['name']}: {failed}")


_EXPECTED = {"group": "TotallyPositive", "lower": "TotallyNonnegative"}


def certify_op(tnnflow, inputs: dict, k: int, samples: Samples, tally: Tally) -> None:
    """One round: a ``sample`` command per (n, side), then a control per n."""
    seeds, out = inputs["seeds"], inputs["out"]
    seed = seeds[k % len(seeds)]
    for n in inputs["sizes"]:
        for side, expected in _EXPECTED.items():
            argv = ["sample", "--n", str(n), "--side", side, "--count", "1",
                    "--seed", str(seed), "--out", str(out)]
            try:
                t0 = time.perf_counter()
                rc = tnnflow.cli.main(argv)
                samples.add(f"n{n}.{side}", time.perf_counter() - t0)
                report = json.loads(out.read_bytes())
                ok = rc == 0 and all(s["positivity"] == expected for s in report["samples"])
                tally.check(ok, f"sample --n {n} --side {side} --seed {seed}: exit {rc}")
            except Exception:
                tally.crash(f"sample --n {n} --side {side} --seed {seed} raised")
        pool = inputs["controls"][n]
        control = pool[k % len(pool)]
        try:
            t0 = time.perf_counter()
            verdict = tnnflow.totpos.is_tnn_matrix(control)
            samples.add(f"n{n}.control", time.perf_counter() - t0)
            tally.check(verdict is tnnflow.Positivity.NEITHER, f"control at n = {n}: {verdict}")
        except Exception:
            tally.crash(f"control at n = {n} raised")


def op_count(workload: str, inputs: dict) -> int:
    """Operations in one full pass: the unit a traced run repeats exactly once."""
    if workload == "ladder":
        return len(inputs["rungs"])
    return 1


def run_op(tnnflow, workload: str, inputs: dict, k: int, samples: Samples, tally: Tally, state: dict):
    if workload == "verify":
        verify_op(tnnflow, inputs, k, samples, tally, state.setdefault("reports", {}))
    elif workload == "ladder":
        ladder_op(tnnflow, inputs, k, samples, tally)
    else:
        certify_op(tnnflow, inputs, k, samples, tally)
