"""The verify suite: its table of gate cases, and the fixed-point gate at any n."""

import json
import sys

import numpy as np
import pytest

from tnnflow import linalg, suite
from tnnflow.chevalley import exp_generator_sum
from tnnflow.cli import main
from tnnflow.flow import _frame_gaps, fixed_flag
from tnnflow.suite import CASES, GATES, Case, build_charts, converged_starts, fixed_point_gap
from tnnflow.totpos import Positivity, is_tnn_matrix, sample_params, sample_positive, standard_word_w0

TOL = 1e-8  # the fixed-point row's tolerance in verify


def _row(n, J):
    return Case("fixed_point", n, J, None, TOL)


@pytest.fixture(scope="module")
def charts():
    return build_charts([_row(4, (2,)), _row(4, (1, 3)), _row(5, (2, 3))])


# ---------------------------------------------------------------------------
# the fixed-point gate beyond SL(3)


@pytest.mark.parametrize("n, J", [(4, (2,)), (4, (1, 3)), (5, (2, 3))])
def test_fixed_point_gate_passes_beyond_sl3(charts, n, J):
    section = GATES["fixed_point"].section([_row(n, J)], charts, np.random.default_rng([n, *J]), 5)
    assert section["passed"] is True, section
    assert section["within_a_priori_bound"] is True
    assert 0.0 < section["worst_frame_gap"] <= TOL
    assert section["starts"] == 5 and section["tolerance"] == TOL


def test_fixed_point_gap_runs_over_the_recorded_dimensions_only(charts):
    """At (4, {1, 3}) only the 2-plane is recorded; the line and the 3-plane lag behind it at T."""
    starts, times, bounded = converged_starts(charts[4, (1, 3)], np.random.default_rng(8), 5)
    assert bounded
    assert fixed_point_gap(starts, times, (1, 3)) <= TOL
    assert fixed_point_gap(starts, times, ()) > TOL


@pytest.mark.parametrize("n, J", [(4, (2,)), (4, (1, 3)), (5, (2, 3))])
def test_fixed_point_gap_fails_at_half_the_convergence_time(charts, n, J):
    starts, times, _ = converged_starts(charts[n, J], np.random.default_rng(9), 5)
    assert fixed_point_gap(starts, times, J) <= TOL
    assert fixed_point_gap(starts, times / 2, J) > TOL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_gap_matches_the_stepwise_flowed_frame(n, stepwise_frame):
    """One QR of the row-scaled P^T g against flowing g step by step and
    re-orthonormalizing, compared with the fixed flag as a frame, per start."""
    word = standard_word_w0(n)
    rng = np.random.default_rng(n)
    starts = np.array(
        [
            linalg.to_float(sample_positive(sample_params(word, rng, group=side == "group"), side).entries)
            for side in ("lower", "group", "lower", "group")
        ]
    )
    for t in (0.5, 3.0, 10.0, 20.0):
        for g in starts:
            closed = fixed_point_gap(g[None], np.array([t]), ())
            oracle = float(np.max(_frame_gaps(fixed_flag(n), stepwise_frame(g, t))))
            assert abs(closed - oracle) <= 1e-13, (t, closed, oracle)


# ---------------------------------------------------------------------------
# the table


def test_every_section_has_a_row():
    gates = [row.gate for row in CASES]
    assert set(gates) == set(GATES) and len(GATES) == 8
    # a gate's rows are contiguous, in the order of GATES
    assert list(dict.fromkeys(gates)) == list(GATES)


def test_the_modules_built_are_the_ones_the_rows_name(monkeypatch):
    """Each module is built once, and every section reads only modules the table built."""
    built, read = [], set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    def recording_charts(cases):
        charts = build_charts(cases)
        built.extend(charts)
        return Recording(charts)

    monkeypatch.setattr(suite, "build_charts", recording_charts)
    _, sections = suite.run_suite(seed=3, count=10)
    named = {(row.n, row.J) for row in CASES if GATES[row.gate].charted}
    assert len(built) == len(set(built))
    assert set(built) == named == read == {(3, ()), (3, (2,)), (4, (2,)), (4, (1, 3))}
    assert all(section["passed"] for section in sections.values())


def test_verify_calls_no_sl3_readout(capsys, monkeypatch):
    """verify reads the limit flag off a frame: the SL(3) chart read-off is never called."""

    def refuse(*args, **kwargs):
        raise AssertionError("verify called an SL(3) read-off")

    for module in [m for name, m in sys.modules.items() if name.startswith("tnnflow")]:
        for name in ("chart_line", "line_to_sl3_coords"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code = main(["verify", "--seed", "7"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    assert set(doc["sections"]["fixed_point"]) == {
        "starts",
        "worst_frame_gap",
        "within_a_priori_bound",
        "tolerance",
        "passed",
    }


def test_exp_total_positivity_says_what_it_certifies():
    """The certificate is issued on the binary64 exp(t tau), rationalized, and the section says so."""
    (row,) = [row for row in CASES if row.gate == "exp_total_positivity"]
    section = GATES[row.gate].section([row], {}, None, None)
    assert section == {
        "t": 1.0,
        "certifies": "binary64 rounding of exp(t tau)",
        "verdict": Positivity.TOTALLY_POSITIVE,
        "passed": True,
    }
    assert is_tnn_matrix(linalg.rationalize(exp_generator_sum(row.n, row.t).entries)) is section["verdict"]
