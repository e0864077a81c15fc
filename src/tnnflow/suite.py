"""The verification suite behind ``tnnflow verify``, driven by one table.

Each row of ``CASES`` is one case of one gate: n, flag type J (the unrecorded
dimensions, as in :func:`~tnnflow.embedding.lambda_for`), flow time t and
tolerance, where the gate has them.  ``GATES`` gives each gate its section, the
rule that turns ``--count`` into its sample count, and whether it reads the
modules of its rows, which are built and charted once per run.  Each gate draws
from a generator seeded by the seed and its name, so a row added or dropped moves
no other section.  ``exp_total_positivity`` certifies exp(t tau) with no float,
and no gate re-checks a module's Weyl dimension, which ``build_rep`` checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cells import bruhat_interval_counts, census_verdict, enumerate_cells, face_poset, validate_poset
from .chevalley import Pinning, generator_sum
from .embedding import _float_lines, build_rep, chart_coords, eigenchart, lambda_for
from .flow import (
    DiagonalFlow, _frame_gaps, commutation_check, converge, fixed_flag, flag_frame, invariance_check, log_contraction,
)
from .folding import build_folding, fixed_locus_flow_check
from .totpos import Positivity, _certificate, _float_lower_samples, standard_word_w0

__all__ = ["Case", "CASES", "GATES", "build_charts", "converged_starts", "fixed_point_gap", "run_suite"]


class Case(NamedTuple):
    gate: str
    n: int
    J: tuple  # sorted
    t: float | None
    tol: float | None


CASES = (
    # the other gates chart the first three modules; (4, {1,3}), n = 8 and 30 are closed form only
    Case("axioms", 3, (), None, 1e-12),
    Case("axioms", 3, (2,), None, 1e-12),
    Case("axioms", 4, (2,), None, 1e-12),
    Case("axioms", 4, (1, 3), None, 1e-12),
    Case("axioms", 8, (), None, 1e-12),
    Case("axioms", 30, (), None, 1e-12),
    Case("commutation", 3, (), 0.1, 1e-8),
    Case("commutation", 3, (), 1.0, 1e-8),
    Case("commutation", 3, (2,), 0.1, 1e-8),
    Case("commutation", 3, (2,), 1.0, 1e-8),
    Case("commutation", 4, (2,), 0.1, 1e-8),
    Case("commutation", 4, (2,), 1.0, 1e-8),
    # the flag-minor margin each sample must clear on every recorded level, 1e-12, is invariance_check's own
    Case("invariance", 3, (), 0.1, None),
    Case("invariance", 3, (2,), 0.1, None),
    Case("invariance", 4, (2,), 0.1, None),
    Case("folding", 4, (), 0.1, 1e-12),
    Case("folding", 4, (), 1.0, 1e-12),
    Case("folding", 4, (), 5.0, 1e-12),
    Case("census", 3, (), None, None),
    # exp(t tau) for every t > 0, certified from the int matrix 2I + tau alone
    Case("exp_total_positivity", 3, (), None, None),
    Case("exp_total_positivity", 4, (), None, None),
    Case("exp_total_positivity", 8, (), None, None),
    Case("exp_total_positivity", 30, (), None, None),
    Case("fixed_point", 3, (), None, 1e-8),
)


def _the(values):
    """The one value that all rows of a section share (``ValueError`` if they differ)."""
    (value,) = set(values)
    return value


# ---------------------------------------------------------------------------
# the sections: each takes its rows, the charts, the generator and its count


def _axioms(rows, charts, rng, count) -> dict:
    """log C in closed form, positive and equal to the chart's mu_0 - mu_1 where another
    gate charts the module; the other axioms hold for any negative rates, so none is sampled."""
    tol, cases = _the(row.tol for row in rows), []
    for row in rows:
        case = {"n": row.n, "J": list(row.J), "log_contraction": log_contraction(row.n, row.J)}
        if (row.n, row.J) in charts:
            case["chart_gap"] = abs(case["log_contraction"] - charts[row.n, row.J].gap)
        case["passed"] = case["log_contraction"] > 0 and case.get("chart_gap", 0.0) <= tol
        cases.append(case)
    return {"cases": cases, "tolerance": tol, "passed": all(case["passed"] for case in cases)}


def _commutation(rows, charts, rng, count) -> dict:
    """One :func:`~tnnflow.flow.commutation_check` per (n, J), over the times of its rows: the
    stream of one check per row where the rows of a chart are adjacent, as in ``CASES``."""
    tol, cases, groups = _the(row.tol for row in rows), [], {}
    for row in rows:
        groups.setdefault((row.n, row.J), []).append(row)
    for key, group in groups.items():
        worsts = commutation_check(charts[key], [row.t for row in group], rng, count)["max_diff"]
        cases += [{"n": row.n, "J": list(row.J), "t": row.t, "samples": count, "worst": worst, "passed": worst <= tol}
                  for row, worst in zip(group, worsts)]
    return {"cases": cases, "tolerance": tol, "passed": all(case["passed"] for case in cases)}


def _invariance(rows, charts, rng, count) -> dict:
    cases = [{"n": row.n, "J": list(row.J), "t": row.t} | invariance_check(row.n, row.J, row.t, rng, count=count)
             for row in rows]
    return {"cases": cases, "passed": all(case["passed"] for case in cases),
            "certifies": "every flag minor of each recorded level, over the level's minor of largest magnitude, above"
                         " 1e-12; weaker than membership in Y>=0 for a type with a gap, such as (4, {2})"}


def _folding(rows, charts, rng, count) -> dict:
    folding = build_folding(_the(row.n for row in rows))
    times = tuple(row.t for row in rows)
    report = fixed_locus_flow_check(folding, rng, times=times, count=count, tol=_the(row.tol for row in rows))
    return report | {"witness": report["witness"] or "none"}


def _census(rows, charts, rng, count) -> dict:
    (row,) = rows
    census = enumerate_cells()  # the complete SL(3) flag variety
    checks = validate_poset(face_poset(census))
    counts = bruhat_interval_counts(row.n)
    return {
        "cell_count": len(census.cells),
        "f_vector": list(census.f_vector),
        "bruhat_counts": list(counts),
        "euler_boundary": census.euler(max_dim=2),
        "vertex_labels": sorted(census.vertex_labels()),
        "poset_checks": checks,
        "passed": all(census_verdict(census, checks, counts).values()),
    }


def _step(n: int) -> np.ndarray:
    """2I + tau, the int matrix of 2(I + tau/2), from which the section certifies exp(t tau)."""
    return 2 * np.eye(n, dtype=int) + generator_sum(Pinning(n))


def _consecutive_minors(m: np.ndarray) -> list:
    """The leading principal minors D_1..D_n of a tridiagonal int matrix, on Python ints, by
    D_k = a_k D_{k-1} - b_{k-1} c_{k-1} D_{k-2}, with a the diagonal and b, c the off-diagonals.
    On a Toeplitz matrix, such as 2I + tau, every consecutive principal minor of size k is D_k."""
    minors = [1, int(m[0, 0])]
    for k in range(1, len(m)):
        minors.append(int(m[k, k]) * minors[-1] - int(m[k - 1, k] * m[k, k - 1]) * minors[-2])
    return minors[1:]


def _exp_total_positivity(rows, charts, rng, count) -> dict:
    """Each row's least consecutive principal minor of 2I + tau and, up to n = 8, the verdict on
    the witness (2I + tau)^(n-1) and, as the control, the (n, 1) entry of (2I + tau)^(n-2): a
    k-th power of a tridiagonal matrix has bandwidth k, so that entry is 0 and the power not TP."""
    cases = []
    for row in rows:
        step = _step(row.n)
        case = {"n": row.n, "least_minor": min(_consecutive_minors(step))}
        passed = case["least_minor"] > 0
        if row.n <= 8:  # the witness's solid minors take about 10 ms at n = 30
            witness = np.linalg.matrix_power(step, row.n - 1)
            case["witness"] = _certificate(witness.T.tolist(), [1] * row.n)[0]
            case["control_corner"] = int(np.linalg.matrix_power(step, row.n - 2)[-1, 0])
            passed = passed and case["witness"] is Positivity.TOTALLY_POSITIVE and case["control_corner"] == 0
        cases.append(case | {"passed": passed})
    return {"cases": cases, "passed": all(case["passed"] for case in cases),
            "certifies": "exp(t tau) totally positive for every t > 0: 2I + tau has positive consecutive principal"
                         " minors, so I + s tau (0 < s <= 1/2) and exp(t tau) = lim (I + t tau / m)^m are oscillatory,"
                         " and an oscillatory n x n matrix has a TP (n-1)-th power (Gantmacher-Krein; Pinkus ch. 4-5)"}


def converged_starts(chart, rng, count: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """``count`` lower-unipotent TP starts g in binary64, the time T at which
    :func:`~tnnflow.flow.converge` brings each chart point below norm 1e-9,
    and whether every T is within its a priori bound.  The starts are drawn at once,
    the stream of ``count`` :func:`~tnnflow.totpos.sample_params` calls, and
    multiplied out in binary64 (:func:`~tnnflow.totpos._float_lower_samples`): the
    gate is a binary64 one and certifies no exact object.  The lines of all starts
    come from one stacked call of the float line kernel, and their chart points
    from one :func:`~tnnflow.embedding.chart_coords`."""
    flow = DiagonalFlow.from_chart(chart)
    starts = _float_lower_samples(standard_word_w0(chart.rep.n), rng, count)
    runs = [converge(flow, p, tol=1e-9) for p in chart_coords(chart, _float_lines(chart.rep, starts))]
    return starts, np.array([run.time for run in runs]), all(run.within_bound for run in runs)


def fixed_point_gap(starts: np.ndarray, times: np.ndarray, J) -> float:
    """The largest distance from a flowed start exp(T tau) g to the fixed flag, over the starts.

    :func:`~tnnflow.flow.flag_frame` flows all starts as one stack, each to its
    own T, and the distance at dimension k is the largest sine of the principal
    angles between the leading k columns of that frame and of the fixed flag
    (:func:`~tnnflow.flow.fixed_flag`).  The maximum runs over the recorded
    dimensions, k not in J, only: an unrecorded one is no part of the flag, and lags.
    """
    n = starts.shape[-1]
    gaps = _frame_gaps(fixed_flag(n), flag_frame(starts, times))
    return float(np.max(gaps[:, [k - 1 for k in range(1, n) if k not in J]]))


def _fixed_point(rows, charts, rng, count) -> dict:
    tol, worst, bounded = _the(row.tol for row in rows), 0.0, True
    for row in rows:
        starts, times, ok = converged_starts(charts[row.n, row.J], rng, count)
        worst, bounded = max(worst, fixed_point_gap(starts, times, row.J)), bounded and ok
    return {"starts": count, "worst_frame_gap": worst, "within_a_priori_bound": bounded, "tolerance": tol,
            "passed": bounded and worst <= tol}


class Gate(NamedTuple):
    section: object  # section(rows, charts, rng, count) -> dict
    count: object  # count(--count) -> samples per case, or None for a gate that samples nothing
    charted: bool  # whether the gate reads the module of each of its rows


# in report order
GATES = {
    "axioms": Gate(_axioms, None, False),
    "commutation": Gate(_commutation, lambda c: max(c // 5, 10), True),
    "invariance": Gate(_invariance, lambda c: max(c // 3, 20), False),
    "folding": Gate(_folding, lambda c: max(c // 3, 20), False),
    "census": Gate(_census, None, False),
    "exp_total_positivity": Gate(_exp_total_positivity, None, False),
    "fixed_point": Gate(_fixed_point, lambda c: 5, True),
}


def build_charts(cases) -> dict:
    """The eigenchart of each (n, J) that a charted gate's rows name, built once, keyed by (n, J)."""
    keys = dict.fromkeys((row.n, row.J) for row in cases if GATES[row.gate].charted)
    return {(n, J): eigenchart(build_rep(lambda_for(n, J))) for n, J in keys}


def run_suite(seed: int, count: int) -> tuple[dict, dict]:
    """Every gate of ``CASES``, each on its own generator seeded by ``seed`` and the
    bytes of the gate's name (``hash()`` is salted per process): the sample count
    of each gate that samples, and each gate's report section."""
    counts = {name: gate.count(count) for name, gate in GATES.items() if gate.count}
    charts = build_charts(CASES)
    sections = {
        name: gate.section([row for row in CASES if row.gate == name], charts,
                           np.random.default_rng([seed, *name.encode()]), counts.get(name))
        for name, gate in GATES.items()
    }
    return counts, sections
