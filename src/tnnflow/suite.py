"""The verification suite behind ``tnnflow verify``, driven by one table.

Each row of ``CASES`` is one case of one gate: its n, its flag type J (the
unrecorded dimensions, as in :func:`~tnnflow.embedding.lambda_for`), its flow
time t and its tolerance, where the gate has them.  ``GATES`` gives each gate
its report section, the rule that turns ``--count`` into its sample count,
and whether it reads the module of its rows.  Those modules are built and
charted once per run, from the rows.  The gates run in table order and draw
from one generator, so a seed fixes every sample.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .cells import bruhat_interval_counts, census_verdict, enumerate_cells, face_poset, validate_poset
from .chevalley import exp_generator_sum, generator_sum_spectrum
from .embedding import build_rep, chart_coords, eigenchart, lambda_for, line_of, weyl_dim
from .flow import DiagonalFlow, _frame_gaps, commutation_check, converge, flag_frame, invariance_check, verify_axioms
from .folding import build_folding, fixed_locus_flow_check
from .totpos import Positivity, is_tnn_matrix, sample_params, sample_positive, standard_word_w0

__all__ = ["Case", "CASES", "GATES", "build_charts", "converged_starts", "fixed_point_gap", "run_suite"]


class Case(NamedTuple):
    gate: str
    n: int
    J: tuple  # sorted
    t: float | None
    tol: float | None


CASES = (
    Case("axioms", 3, (), None, None),
    Case("commutation", 3, (), 0.1, 1e-8),
    Case("commutation", 3, (), 1.0, 1e-8),
    Case("commutation", 3, (2,), 0.1, 1e-8),
    Case("commutation", 3, (2,), 1.0, 1e-8),
    Case("commutation", 4, (2,), 0.1, 1e-8),
    Case("commutation", 4, (2,), 1.0, 1e-8),
    # the interior margin each sample must clear, 1e-12, is invariance_check's own
    Case("invariance", 3, (), 0.1, None),
    Case("invariance", 3, (2,), 0.1, None),
    Case("invariance", 4, (2,), 0.1, None),
    Case("folding", 4, (), 0.1, 1e-10),
    Case("folding", 4, (), 1.0, 1e-10),
    Case("folding", 4, (), 5.0, 1e-10),
    Case("census", 3, (), None, None),
    Case("exp_total_positivity", 3, (), 1.0, None),
    Case("fixed_point", 3, (), None, 1e-8),
    Case("representation_dims", 3, (), None, None),
    Case("representation_dims", 4, (1, 3), None, None),
)


def _the(values):
    """The one value that all rows of a section share (``ValueError`` if they differ)."""
    (value,) = set(values)
    return value


# ---------------------------------------------------------------------------
# the sections: each takes its rows, the charts, the generator and its count


def _axioms(rows, charts, rng, count) -> dict:
    (row,) = rows
    flow = DiagonalFlow.from_chart(charts[row.n, row.J])
    report = verify_axioms(flow, rng, samples=count)
    checks = [{"name": c.name, "passed": c.passed, "worst": c.worst, "samples": c.samples}
              for c in report.checks]
    return {"samples": count, "log_contraction": flow.log_contraction, "checks": checks,
            "passed": report.passed}


def _commutation(rows, charts, rng, count) -> dict:
    tol, cases = _the(row.tol for row in rows), []
    words = {n: standard_word_w0(n) for n in dict.fromkeys(row.n for row in rows)}
    for row in rows:
        batch = [sample_params(words[row.n], rng) for _ in range(count)]
        worst = commutation_check(charts[row.n, row.J], batch, row.t)["max_diff"]
        cases.append({"n": row.n, "J": list(row.J), "t": row.t, "samples": count, "worst": worst,
                      "passed": worst <= tol})
    return {"cases": cases, "tolerance": tol, "passed": all(case["passed"] for case in cases)}


def _invariance(rows, charts, rng, count) -> dict:
    t = _the(row.t for row in rows)
    cases = [{"n": row.n, "J": list(row.J)} | invariance_check(charts[row.n, row.J].rep, t, rng, count=count)
             for row in rows]
    return {"cases": cases, "t": t, "passed": all(case["passed"] for case in cases)}


def _folding(rows, charts, rng, count) -> dict:
    folding = build_folding(_the(row.n for row in rows))
    times = tuple(row.t for row in rows)
    report = fixed_locus_flow_check(folding, rng, times=times, count=count, tol=_the(row.tol for row in rows))
    return report | {"witness": report["witness"] or "none"}


def _census(rows, charts, rng, count) -> dict:
    (row,) = rows
    census = enumerate_cells()  # the complete SL(3) flag variety
    checks = validate_poset(face_poset(census))
    return {
        "cell_count": len(census.cells),
        "f_vector": list(census.f_vector),
        "bruhat_counts": list(bruhat_interval_counts(row.n)),
        "euler_boundary": census.euler(max_dim=2),
        "vertex_labels": sorted(census.vertex_labels()),
        "poset_checks": checks,
        "passed": all(census_verdict(census, checks).values()),
    }


def _exp_total_positivity(rows, charts, rng, count) -> dict:
    (row,) = rows
    g = exp_generator_sum(row.n, row.t)
    verdict = is_tnn_matrix(linalg.rationalize(g.entries))
    return {"t": row.t, "certifies": "binary64 rounding of exp(t tau)", "verdict": verdict,
            "passed": verdict is Positivity.TOTALLY_POSITIVE}


def converged_starts(chart, rng, count: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """``count`` lower-unipotent TP starts g in binary64, the time T at which
    :func:`~tnnflow.flow.converge` brings each chart point below norm 1e-9,
    and whether every T is within its a priori bound."""
    flow = DiagonalFlow.from_chart(chart)
    word = standard_word_w0(chart.rep.n)
    starts, times, bounded = [], [], True
    for _ in range(count):
        u = sample_positive(sample_params(word, rng), "lower")
        run = converge(flow, chart_coords(chart, line_of(chart.rep, u)), tol=1e-9)
        bounded = bounded and run.within_bound
        starts.append(linalg.to_float(u.entries))
        times.append(run.time)
    return np.array(starts), np.array(times), bounded


def fixed_point_gap(starts: np.ndarray, times: np.ndarray, J) -> float:
    """The largest distance from a flowed start exp(T tau) g to the fixed flag, over the starts.

    With tau = P diag(d) P^T in closed form, :func:`~tnnflow.flow.flag_frame`
    gives the frame Q of exp(T tau) g in P's coordinates, one stacked QR for
    all starts.  The fixed flag is the frame P
    (:func:`~tnnflow.flow.fixed_flag`), the identity in P's coordinates, so
    the largest sine of the principal angles at dimension k is
    ``||Q[k:, :k]||_2``.  The maximum runs over the recorded dimensions, k
    not in J, only: an unrecorded one is no part of the flag, and lags.
    """
    n = starts.shape[-1]
    q = flag_frame(starts, times, *generator_sum_spectrum(n))
    return float(np.max(_frame_gaps(np.eye(n), q)[:, [k - 1 for k in range(1, n) if k not in J]]))


def _fixed_point(rows, charts, rng, count) -> dict:
    tol, worst, bounded = _the(row.tol for row in rows), 0.0, True
    for row in rows:
        starts, times, ok = converged_starts(charts[row.n, row.J], rng, count)
        worst, bounded = max(worst, fixed_point_gap(starts, times, row.J)), bounded and ok
    return {"starts": count, "worst_frame_gap": worst, "within_a_priori_bound": bounded, "tolerance": tol,
            "passed": bounded and worst <= tol}


def _representation_dims(rows, charts, rng, count) -> dict:
    modules = []
    for row in rows:
        chart = charts[row.n, row.J]
        dim, weyl, (mu0, mu1) = chart.rep.dim, weyl_dim(chart.rep.weight), chart.mu[:2]
        modules.append({"n": row.n, "J": list(row.J), "dim": dim, "weyl_dim": weyl, "mu0": mu0, "mu1": mu1,
                        "passed": dim == weyl and mu0 > mu1})
    return {"modules": modules, "passed": all(m["passed"] for m in modules)}


class Gate(NamedTuple):
    section: object  # section(rows, charts, rng, count) -> dict
    count: object  # count(--count) -> samples per case, or None for a gate that samples nothing
    charted: bool  # whether the gate reads the module of each of its rows


# in report order, which is also the order of the draws
GATES = {
    "axioms": Gate(_axioms, lambda c: max(c, 100), True),
    "commutation": Gate(_commutation, lambda c: max(c // 5, 10), True),
    "invariance": Gate(_invariance, lambda c: max(c // 3, 20), True),
    "folding": Gate(_folding, lambda c: max(c // 3, 20), False),
    "census": Gate(_census, None, False),
    "exp_total_positivity": Gate(_exp_total_positivity, None, False),
    "fixed_point": Gate(_fixed_point, lambda c: 5, True),
    "representation_dims": Gate(_representation_dims, None, True),
}


def build_charts(cases) -> dict:
    """The eigenchart of each (n, J) that a charted gate's rows name, built once, keyed by (n, J)."""
    keys = dict.fromkeys((row.n, row.J) for row in cases if GATES[row.gate].charted)
    return {(n, J): eigenchart(build_rep(lambda_for(n, J))) for n, J in keys}


def run_suite(seed: int, count: int) -> tuple[dict, dict]:
    """Every gate of ``CASES`` on one generator seeded by ``seed``: the sample
    count of each gate that samples, and each gate's report section."""
    counts = {name: gate.count(count) for name, gate in GATES.items() if gate.count}
    charts = build_charts(CASES)
    rng = np.random.default_rng(seed)
    sections = {
        name: gate.section([row for row in CASES if row.gate == name], charts, rng, counts.get(name))
        for name, gate in GATES.items()
    }
    return counts, sections
