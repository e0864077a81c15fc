"""The verify suite: its table of gate cases, and the fixed-point gate at any n."""

import numpy as np
import pytest

import oracles
from tnnflow import flow, linalg, suite
from tnnflow.chevalley import Pinning, generator_sum
from tnnflow.flow import _frame_gaps, fixed_flag
from tnnflow.serialize import dumps_canonical
from tnnflow.suite import CASES, GATES, Case, build_charts, converged_starts, fixed_point_gap
from tnnflow.totpos import Positivity, certify_minors, is_tnn_matrix, sample_params, sample_positive, standard_word_w0

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
    assert set(gates) == set(GATES) and len(GATES) == 7
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
    assert set(built) == named == read == {(3, ()), (3, (2,)), (4, (2,))}
    assert all(section["passed"] for section in sections.values())


def test_a_deleted_row_moves_only_its_own_section(monkeypatch):
    """Each section draws from its own generator: with one commutation row
    dropped, every other section comes out byte for byte as before."""
    _, before = suite.run_suite(seed=3, count=10)
    dropped = next(row for row in CASES if row.gate == "commutation")
    monkeypatch.setattr(suite, "CASES", tuple(row for row in CASES if row != dropped))
    _, after = suite.run_suite(seed=3, count=10)
    assert len(after["commutation"]["cases"]) == len(before["commutation"]["cases"]) - 1
    for name in GATES:
        if name != "commutation":
            assert dumps_canonical(after[name]) == dumps_canonical(before[name]), name


def test_commutation_gate_makes_one_check_per_chart(monkeypatch):
    """The commutation section runs one check per (n, J), over the times of the rows that
    share its chart, and reports each row as one check per row on the same stream does."""
    rows = [row for row in CASES if row.gate == "commutation"]
    charts, calls = build_charts(rows), []

    def recording(chart, times, rng, count):
        calls.append((next(key for key, c in charts.items() if c is chart), list(times)))
        return flow.commutation_check(chart, times, rng, count)

    monkeypatch.setattr(suite, "commutation_check", recording)
    section = GATES["commutation"].section(rows, charts, np.random.default_rng(4), 10)
    assert calls == [((3, ()), [0.1, 1.0]), ((3, (2,)), [0.1, 1.0]), ((4, (2,)), [0.1, 1.0])]
    rng = np.random.default_rng(4)
    for row, case in zip(rows, section["cases"], strict=True):
        worst = flow.commutation_check(charts[row.n, row.J], (row.t,), rng, 10)["max_diff"][0]
        assert case == {"n": row.n, "J": list(row.J), "t": row.t, "samples": 10, "worst": worst, "passed": True}


# ---------------------------------------------------------------------------
# the axioms gate, in closed form


def _axioms(charts):
    return GATES["axioms"].section([row for row in CASES if row.gate == "axioms"], charts, None, None)


def test_axioms_gate_draws_nothing_and_matches_every_chart():
    """With no generator at all the section passes: log C is closed form, and equals
    mu_0 - mu_1 on each module another gate charts, with no module built for (4, {1, 3}),
    n = 8 or 30.  The (4, {1, 3}) gap is checked by ``test_log_contraction_matches_the_chart``."""
    section = _axioms(build_charts(CASES))
    assert section["passed"] is True and section["tolerance"] == 1e-12
    assert not GATES["axioms"].charted and GATES["axioms"].count is None
    charted = {(case["n"], tuple(case["J"])): case for case in section["cases"] if "chart_gap" in case}
    assert set(charted) == {(3, ()), (3, (2,)), (4, (2,))}
    assert all(case["chart_gap"] <= 1e-12 for case in charted.values())
    assert {(case["n"], tuple(case["J"])) for case in section["cases"] if "chart_gap" not in case} == {
        (4, (1, 3)), (8, ()), (30, ())}
    assert all(case["log_contraction"] > 0 for case in section["cases"])


def test_axioms_gate_fails_on_the_reversed_spectrum(monkeypatch):
    """Negative control: with d ascending every rate d_k - d_{k+1} is negative, so no row passes."""
    charts = build_charts(CASES)
    spectrum = flow.generator_sum_spectrum
    monkeypatch.setattr(flow, "generator_sum_spectrum", lambda n: tuple(x[..., ::-1] for x in spectrum(n)))
    section = _axioms(charts)
    assert section["passed"] is False
    assert not any(case["passed"] for case in section["cases"])


def _exp_section():
    return GATES["exp_total_positivity"].section(
        [row for row in CASES if row.gate == "exp_total_positivity"], {}, None, None)


def test_exp_total_positivity_says_what_it_certifies():
    """The certificate is of exp(t tau) for every t > 0, from int work on 2I + tau alone:
    the least consecutive principal minor at n = 3, 4, 8 and 30, and up to n = 8 the TP
    witness (2I + tau)^(n-1) and the control (2I + tau)^(n-2), whose corner is 0."""
    section = _exp_section()
    assert section["passed"] is True
    assert section["certifies"].startswith("exp(t tau) totally positive for every t > 0: ")
    assert "Gantmacher-Krein; Pinkus" in section["certifies"]
    tp = Positivity.TOTALLY_POSITIVE
    assert section["cases"] == [
        {"n": 3, "least_minor": 2, "witness": tp, "control_corner": 0, "passed": True},
        {"n": 4, "least_minor": 2, "witness": tp, "control_corner": 0, "passed": True},
        {"n": 8, "least_minor": 2, "witness": tp, "control_corner": 0, "passed": True},
        {"n": 30, "least_minor": 2, "passed": True},
    ]
    assert all(type(case["least_minor"]) is int for case in section["cases"])


@pytest.mark.parametrize("n", range(2, 7))
def test_consecutive_minors_match_the_all_minors_walk(n):
    """Each D_k of the recurrence is, by the all-minors oracle, every consecutive principal
    k-minor of 2I + tau, which is Toeplitz; and each consecutive principal block is TNN, by
    ``certify_minors``, as a tridiagonal matrix with nonnegative entries and these minors is."""
    step = suite._step(n)
    minors = suite._consecutive_minors(step)
    assert minors == list(range(2, n + 2))  # D_k = k + 1
    principal = [(rows, value) for rows, cols, value in oracles.all_minors(step)
                 if rows == cols and rows == tuple(range(rows[0], rows[-1] + 1))]
    assert len(principal) == n * (n + 1) // 2
    assert all(value == minors[len(rows) - 1] for rows, value in principal)
    for k in range(1, n + 1):
        for i in range(n - k + 1):
            assert certify_minors(step[i:i + k, i:i + k])[0] is not Positivity.NEITHER
    # a tridiagonal matrix with other entries, against the exact determinant
    m = np.diag([3, -1, 4, 1, 5, 9][:n]) + np.diag([2, 7, 1, 8, 2][:n - 1], 1) + np.diag([-6, 2, 0, 3, 1][:n - 1], -1)
    assert suite._consecutive_minors(m) == [oracles.det(m[:k, :k]) for k in range(1, n + 1)]


@pytest.mark.parametrize("n", range(3, 7))
def test_the_witness_is_tp_and_its_control_tnn_but_not_tp(n):
    """By the all-minors oracle: (2I + tau)^(n-1) is TP, and (2I + tau)^(n-2) is TNN with a
    least minor of exactly 0, the corner entry the section reports."""
    step = suite._step(n)
    assert certify_minors(np.linalg.matrix_power(step, n - 1))[0] is Positivity.TOTALLY_POSITIVE
    verdict, least = certify_minors(np.linalg.matrix_power(step, n - 2))
    assert verdict is Positivity.TOTALLY_NONNEGATIVE and least == 0


def test_exp_total_positivity_fails_on_i_plus_tau(monkeypatch):
    """Mutation: with I + tau in place of I + tau/2 (ints 2I + tau), D_2 = 0 and D_3 < 0,
    so no row passes, the n = 30 row that has no witness included."""
    monkeypatch.setattr(suite, "_step", lambda n: np.eye(n, dtype=int) + generator_sum(Pinning(n)))
    section = _exp_section()
    assert section["passed"] is False
    assert not any(case["passed"] for case in section["cases"])
    assert all(case["least_minor"] == -1 for case in section["cases"])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
def test_exp_total_positivity_reads_each_float_as_its_exact_ratio(n, t):
    """Oracle of the closed-form certificate: the binary64 exp(t tau), each float read as its
    exact ratio, is TP, by the column-scaled ints and by the ``Fraction`` image alike."""
    entries = oracles.exp_generator_sum(n, t).entries
    verdict = is_tnn_matrix(oracles.rationalize(entries))
    assert verdict is Positivity.TOTALLY_POSITIVE
    assert suite._certificate(*linalg._scaled_columns(entries))[0] is verdict


def test_invariance_gate_reads_no_chart_and_says_what_it_certifies():
    """The invariance section runs with no chart at all, and names the flag-minor bar
    and that on a type with a gap it is weaker than membership in Y>=0."""
    rows = [row for row in CASES if row.gate == "invariance"]
    assert not GATES["invariance"].charted
    section = GATES["invariance"].section(rows, {}, np.random.default_rng(0), 20)
    assert section["passed"] is True and [case["count"] for case in section["cases"]] == [20] * len(rows)
    assert section["certifies"] == (
        "every flag minor of each recorded level, over the level's minor of largest magnitude, above 1e-12;"
        " weaker than membership in Y>=0 for a type with a gap, such as (4, {2})"
    )


def test_invariance_rows_each_flow_for_their_own_t():
    """Rows of one invariance section may differ in t: each row flows for its own t,
    and its case reports that t; the section reports none of its own."""
    rows = [Case("invariance", 3, (), 0.1, None), Case("invariance", 3, (2,), 1.0, None)]
    section = GATES["invariance"].section(rows, {}, np.random.default_rng(2), 20)
    assert section["passed"] is True and "t" not in section
    assert [case["t"] for case in section["cases"]] == [0.1, 1.0]
    rng = np.random.default_rng(2)
    for row, case in zip(rows, section["cases"]):
        assert case == {"n": row.n, "J": list(row.J), "t": row.t} | flow.invariance_check(row.n, row.J, row.t, rng, 20)
