"""The command-line surface: output contracts, config precedence, exit codes."""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tnnflow
import oracles
from tnnflow import cli, embedding, linalg
from tnnflow.chevalley import RATIONAL, GroupElement
from tnnflow.cli import RunConfig, _parse_J, build_parser, main
from tnnflow.embedding import build_rep, lambda_for, line_of
from tnnflow.serialize import frac
from tnnflow.totpos import Sl3Coords, sample_params, sample_positive, sl3_coords, sl3_residuals, standard_word_w0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n=1)
    with pytest.raises(ValueError):
        RunConfig(n=3, J=(3,))
    with pytest.raises(ValueError):
        RunConfig(n=4, J=(2, 2))
    with pytest.raises(ValueError):
        RunConfig(float_tol=0.0)
    for name in ("float_tol", "bisect_tol", "vanish_tol"):
        with pytest.raises(ValueError):
            RunConfig(**{name: float("inf")})
    with pytest.raises(ValueError):
        RunConfig(radius=-1.0)
    with pytest.raises(ValueError):
        RunConfig(radius=float("nan"))
    with pytest.raises(ValueError):
        RunConfig(radius=float("inf"))
    with pytest.raises(ValueError):
        RunConfig(t=float("nan"))
    with pytest.raises(ValueError):
        RunConfig(seed=-1)


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["big", "minus_big"])
@pytest.mark.parametrize("name", ["t", "radius", "float_tol", "bisect_tol", "vanish_tol"])
def test_run_config_refuses_a_real_past_binary64(name, value):
    """Each real setting is used as a binary64 number, so an int past binary64 is refused
    by the setting's name: no ``OverflowError``, and no such int taken as a tolerance."""
    with pytest.raises(ValueError, match=f"^{name} must be a finite binary64 number"):
        RunConfig(**{name: value})


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(tnnflow.__path__) if m.name != "__main__"])
def test_every_name_in_all_resolves(name):
    """A name left in ``__all__`` after its function is gone breaks ``import *``
    and every traced benchmark run, which looks each one up."""
    module = importlib.import_module(f"tnnflow.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_pinning_prints_generator_sum(capsys):
    code, out, _ = run_cli(capsys, "pinning", "--n", "3")
    assert code == 0
    assert "tau = [[0,1,0],[1,0,1],[0,1,0]]" in out


def test_pinning_json(capsys):
    code, out, _ = run_cli(capsys, "pinning", "--n", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["tau"] == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert doc["raising"]["1"][0][1] == 1


def test_sample_emits_certificates(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "3", "--side", "group", "--count", "3", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_certified"] is True
    assert len(doc["samples"]) == 3
    for rec in doc["samples"]:
        assert rec["positivity"] == "TotallyPositive"
        # certified by its solid minors alone, a group record carries their least, and
        # no min_minor, which would need every minor
        assert "min_minor" not in rec
        assert "/" in rec["min_solid_minor"] or rec["min_solid_minor"].isdigit()
    # --side is the one spelling of the sampled side
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "3", "--side", "lower", "--positive"])
    assert exc.value.code == 2


@pytest.mark.parametrize("side", ["group", "lower", "upper"])
def test_sample_margins_name_the_minors_they_cover(capsys, side):
    """A group record, certified by its solid minors alone, carries their least
    as ``min_solid_minor`` (checked against ``oracles.det`` of every solid
    submatrix); a unipotent record, certified TNN by its interval minors,
    carries ``min_minor`` = 0, the least over all its minors."""
    code, out, _ = run_cli(capsys, "sample", "--n", "4", "--side", side, "--count", "2", "--seed", "1")
    assert code == 0
    for rec in json.loads(out)["samples"]:
        margins = {key: rec[key] for key in ("min_minor", "min_solid_minor") if key in rec}
        if side != "group":
            assert margins == {"min_minor": "0/1"}
            continue
        g = oracles.rational_matrix(rec["matrix"])
        solid = [oracles.det(g[i : i + k, j : j + k]) for k in range(1, 5) for i in range(5 - k) for j in range(5 - k)]
        assert margins == {"min_solid_minor": str(min(solid))}


def test_a_sample_found_neither_carries_no_margin(capsys, monkeypatch):
    """No factorization has a negative solid minor; certified with its first two
    columns swapped, a group product is NEITHER by one, its record carries no
    margin, and the run exits 1."""
    real = cli._certificate

    def swapped(columns, scales):
        return real([columns[1], columns[0], *columns[2:]], [scales[1], scales[0], *scales[2:]])

    monkeypatch.setattr(cli, "_certificate", swapped)
    code, out, _ = run_cli(capsys, "sample", "--n", "4", "--side", "group", "--count", "1", "--seed", "1")
    rec = json.loads(out)["samples"][0]
    assert code == 1 and rec["positivity"] == "Neither" and rec["certified"] is False
    assert not {"min_minor", "min_solid_minor"} & set(rec)


def test_sample_certifies_n10_from_its_solid_minors(capsys):
    """n = 10, where the walk over all 184,755 minors took seconds."""
    code, out, _ = run_cli(capsys, "sample", "--n", "10", "--side", "group", "--count", "1", "--seed", "3")
    rec = json.loads(out)["samples"][0]
    assert code == 0 and rec["positivity"] == "TotallyPositive" and "min_solid_minor" in rec


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--n", "3", "--count", "3"),
            "f076b8b7fdde871fb4e7d91471d1fda33966a1da94f8515be6e6deb194087ec8",
        ),
        (
            ("--n", "6", "--side", "group", "--count", "3", "--seed", "0"),
            "6573d7f89f6551dcde87b2e8362a24abdd879ac6ac7e0a2422a37fa88cc73432",
        ),
        (
            ("--n", "6", "--side", "lower", "--count", "3", "--seed", "0"),
            "30d75634ed19ec47aa075c73077a53f3e3170c0ec9fed633381168b026781dfc",
        ),
        (
            ("--n", "8", "--side", "group", "--count", "1", "--seed", "0"),
            "21bb42b72c9ae81d6f59883c40e16a61567f6bee72ed5ae2e6dfe1d91f1ef693",
        ),
    ],
    ids=["n3", "n6-group", "n6-lower", "n8-group"],
)
def test_sample_report_bytes_are_pinned(capsys, argv, digest):
    """Exact-only reports: their bytes depend on no platform, BLAS or float rounding."""
    code, out, _ = run_cli(capsys, "sample", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("side", ["group", "lower", "upper"])
def test_sample_matrix_is_the_fraction_view_entry_for_entry(capsys, side):
    """Each ``matrix`` string, written from the column-scaled ints with one gcd per
    entry, is ``frac`` of the entry of ``sample_positive``'s ``Fraction`` matrix, for
    n = 2..10 and seeds 0-4, two records a seed."""
    for n in range(2, 11):
        word = standard_word_w0(n)
        for seed in range(5):
            code, out, _ = run_cli(capsys, "sample", "--n", str(n), "--side", side, "--count", "2", "--seed", str(seed))
            assert code == 0
            rng = np.random.default_rng(seed)
            for rec in json.loads(out)["samples"]:
                entries = sample_positive(sample_params(word, rng, group=side == "group"), side).entries
                assert rec["matrix"] == [[frac(x) for x in row] for row in entries.tolist()], (n, seed)


def test_sample_builds_no_fraction_matrix(capsys, monkeypatch):
    """``sample`` writes its matrices from the ints: ``_fraction_of_scaled`` is never called,
    and every matrix entry reaches the writer as a ``"p/q"`` string."""
    built, payloads = [], []
    monkeypatch.setattr(linalg, "_fraction_of_scaled", lambda *scaled: built.append(scaled))
    monkeypatch.setattr(cli, "dumps_canonical", lambda payload: payloads.append(payload) or "")
    for side in ("group", "lower", "upper"):
        assert main(["sample", "--n", "5", "--side", side, "--count", "3", "--seed", "2"]) == 0
    assert built == [] and len(payloads) == 3
    for payload in payloads:
        for rec in payload["samples"]:
            assert len(rec["matrix"]) == 5
            assert all(type(row) is list and all(type(x) is str for x in row) for row in rec["matrix"])


def test_embed_summary(capsys):
    code, out, _ = run_cli(capsys, "embed", "--n", "3", "--J", "")
    assert code == 0
    assert "dim = 8" in out
    assert "Weyl formula: 8" in out


def _forbid_build(monkeypatch):
    """Make any module build in the CLI fail the test."""
    def build_rep(weight):
        raise AssertionError(f"build_rep was called for {weight}")

    monkeypatch.setattr(cli, "build_rep", build_rep)


@pytest.mark.parametrize(
    "argv",
    [
        ("embed", "--n", "7"),
        ("embed", "--n", "6", "--format", "json"),
        ("flow", "--n", "7"),
        ("flow", "--n", "7", "--crossing"),
        ("embed", "--n", "100"),
        ("flow", "--n", "1000", "--t", "2"),
    ],
)
def test_a_module_too_big_for_a_dense_chart_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    """(6, ()) needs at least 87 GiB for its chart and (7, ()) 8.6e5 GiB, so both exit 2
    with one line before any module is built; past n = 100 the need is only bounded."""
    _forbid_build(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: the module for n = ")
    assert "too big for a dense chart" in err and "physical memory" in err


@pytest.mark.parametrize("n,J", [(2, ()), (3, ()), (4, (2,)), (5, (1, 4)), (6, (1, 5))])
def test_chart_bytes_counts_the_built_module(n, J):
    """The floor is two ambient x dim float64 frames and the dim x dim inverse, of the
    dims the built module has."""
    rep = build_rep(lambda_for(n, J))
    assert embedding._chart_bytes(rep.weight) == 8 * (2 * rep.ambient_dim * rep.dim + rep.dim**2)


def test_the_chart_refusal_reads_physical_memory(capsys, monkeypatch):
    """(3, ()) is built on this machine and refused on one of 1 KiB, which its chart's
    1,664 bytes (ambient dim 9, dim 8) pass."""
    code, _, _ = run_cli(capsys, "embed", "--n", "3")
    assert code == 0
    pages = {"SC_PAGE_SIZE": 1024, "SC_PHYS_PAGES": 1}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    _forbid_build(monkeypatch)
    code, out, err = run_cli(capsys, "embed", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: the module for n = 3, J = [] is too big for a dense chart: it needs at least " \
        "1.55e-06 GiB, past the 9.54e-07 GiB of physical memory\n"


def _forbid_draws(monkeypatch):
    """Make any run of the verify suite or the fold gate in the CLI fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a gate was run")

    monkeypatch.setattr(cli, "run_suite", forbidden)
    monkeypatch.setattr(cli, "fixed_locus_flow_check", forbidden)


@pytest.mark.parametrize(
    "argv",
    [("verify", "--count", "1000000000000"), ("fold", "--count", "1000000000000"),
     ("verify", "--count", "3000000000000000000")],
)
def test_a_count_past_memory_is_refused_before_any_draw(capsys, monkeypatch, argv):
    """The fold gate's QR frames at these counts take terabytes, or more than numpy can
    address, so each exits 2 with one line naming ``--count`` before any gate runs."""
    _forbid_draws(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: --count {argv[-1]} is too big: ")
    assert "physical memory" in err


def test_the_count_refusal_reads_physical_memory(capsys, monkeypatch):
    """``fold --count 10`` runs on this machine and is refused on one of 1 KiB: its gate holds
    11 QR frames of 4 x 4 binary64 entries, 1,408 bytes; ``verify --count 3`` draws 20 fold
    samples, 2,688 bytes."""
    code, _, _ = run_cli(capsys, "fold", "--count", "10")
    assert code == 0
    pages = {"SC_PAGE_SIZE": 1024, "SC_PHYS_PAGES": 1}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    _forbid_draws(monkeypatch)
    code, out, err = run_cli(capsys, "fold", "--count", "10")
    assert (code, out) == (2, "")
    assert err == "error: --count 10 is too big: the fold gate needs at least 1.31e-06 GiB, " \
        "past the 9.54e-07 GiB of physical memory\n"
    code, out, err = run_cli(capsys, "verify", "--count", "3")
    assert (code, out) == (2, "")
    assert err == "error: --count 3 is too big: the fold gate needs at least 2.5e-06 GiB, " \
        "past the 9.54e-07 GiB of physical memory\n"


def test_cells_summary_line(capsys):
    code, out, _ = run_cli(capsys, "cells", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "19 cells: f = (6, 8, 4, 1)"


def test_cells_json_document(capsys):
    code, out, _ = run_cli(capsys, "cells", "--n", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["cell_count"] == 19
    assert doc["bruhat_match"] is True and doc["vertex_labels_match"] is True


def _run_quietly(argv) -> tuple[int, str, str]:
    """``main(argv)`` with stdout and stderr captured; the parser's refusals exit by ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} in a report")


# each key's flag text and config-file value; the census runs at n = 3, J empty and a
# tolerance below the fixed point's least coordinate, so those are drawn often
census_tols = st.one_of(st.floats(1e-15, 0.3), st.floats(), st.integers(-2, 2))
census_settings = {
    "n": (st.one_of(st.just(3), st.integers(-3, 6)), st.one_of(st.just(3), st.integers(-3, 6), st.floats(), st.text(max_size=3))),
    "J": (
        st.one_of(st.just(""), st.text("0123456789, -", max_size=5)),
        st.one_of(st.lists(st.integers(-2, 4), max_size=3), st.text(max_size=3), st.integers()),
    ),
    "vanish_tol": (
        census_tols.map(repr),
        st.one_of(census_tols, st.integers(10**300, 10**310), st.text(max_size=3), st.none()),
    ),
    "fmt": (st.sampled_from(["text", "json", "svg", "xml", ""]), st.sampled_from(["text", "json", "svg", "xml", None, 1])),
}
_CENSUS_FLAGS = {"n": "--n", "J": "--J", "vanish_tol": "--tol-vanish", "fmt": "--format"}
# the keys of census_settings each census command reads
_CENSUS_READS = {"cells": ("n", "J", "vanish_tol", "fmt"), "figure": ("n", "J")}


def _census_run(command):
    """``(command, flags, config)``: flags and config keys drawn from those the command reads."""
    keys = _CENSUS_READS[command]
    return st.tuples(
        st.just(command),
        st.fixed_dictionaries({}, optional={key: census_settings[key][0] for key in keys}),
        st.one_of(st.none(), st.fixed_dictionaries({}, optional={key: census_settings[key][1] for key in keys})),
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_CENSUS_READS)).flatmap(_census_run))
@example(("cells", {}, {"vanish_tol": 10**309}))  # past binary64: once an OverflowError traceback
def test_census_commands_exit_0_or_refuse_in_one_line(tmp_path_factory, run):
    """``cells`` over ``--n``, ``--J``, ``--tol-vanish`` and ``--format``, and ``figure``
    over ``--n`` and ``--J``, as flags and as the same keys of a ``--config`` file: each
    run exits 0, or exits 2 with one line on stderr and nothing on stdout, and never
    raises; a JSON report holds no NaN or inf."""
    command, flags, config = run
    argv = [command]
    for key, value in flags.items():
        argv += [f"{_CENSUS_FLAGS[key]}={value}"]
    if config is not None:
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = _run_quietly(argv)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, (argv, config, err)
        return
    assert code == 0 and err == "", (argv, config, err)
    if out.startswith("{"):
        json.loads(out, parse_constant=_refuse_constant)


def test_census_refusal_names_the_vanishing_tolerance(capsys):
    """A tolerance that swallows every coordinate of the fixed point (each about 0.29 or
    more) is refused by the flag's name.  The figure reads no tolerance and writes no
    census payload, so the parser refuses both flags there."""
    code, out, err = run_cli(capsys, "cells", "--tol-vanish", "0.5")
    assert code == 2 and out == "" and err.startswith("error: --tol-vanish 0.5 ") and len(err.splitlines()) == 1
    for argv in (("figure", "--tol-vanish", "0.5"), ("figure", "--format", "json")):
        code, out, err = _run_quietly(list(argv))
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: unrecognized arguments")


def test_flow_from_flag_file(tmp_path, capsys):
    pt = tmp_path / "point.json"
    pt.write_text('{"flag": [[1,0,0],[2,1,0],[1,1,1]]}')
    code, out, _ = run_cli(capsys, "flow", "--t", "0.5", "--from", str(pt))
    assert code == 0
    doc = json.loads(out)
    assert doc["sl3"]["membership"] == "PositivePart"
    assert float(doc["norm_flowed"]) < float(doc["norm_start"])


def _flow_from_flag(path, flag, t) -> tuple[int, str, str]:
    """``flow --from`` on a flag matrix written to ``path``: exit code, stdout, stderr."""
    path.write_text(json.dumps({"flag": flag}))
    return _run_quietly(["flow", "--from", str(path), "--t", str(t)])


@pytest.mark.parametrize("flag", [[[1, 0, 0], [-1, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 1, 0], [-2, 0, 1]]])
def test_flow_refuses_an_sl3_read_off_whose_v_sums_to_zero(tmp_path, flag):
    """Each line's v sums to 0 exactly, so the (v, w) chart has no point for it; dividing
    by the round-off of that sum once reported v near 1e15 as coordinates."""
    code, out, _ = _flow_from_flag(tmp_path / "flag.json", flag, 0)
    assert code == 0 and json.loads(out)["sl3"] == "outside the (v, w) chart"


@pytest.mark.parametrize(
    "flag",
    [[[1, 0, 0], [2, 1, 0], [1, 1, 1]], [[1, 0, 0], [1, 1, 0], [1, 3, 1]], [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
     [[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[3, -1, 2], [1, 2, -1], [1, 1, 1]]],
)
def test_flow_reads_sl3_off_the_frame_of_an_exact_flag(tmp_path, flag):
    """At t = 0 the read-off off the flowed frame is the exact flag's (v, w) to 1e-14."""
    code, out, _ = _flow_from_flag(tmp_path / "flag.json", flag, 0)
    assert code == 0
    sl3 = json.loads(out)["sl3"]
    got = [float(x) for x in sl3["v"] + sl3["w"]]
    want = sl3_coords(oracles.rational_matrix(flag)).as_vector()
    assert max(abs(x - float(y)) for x, y in zip(got, want)) <= 1e-14


def test_flow_reads_sl3_off_the_flowed_flag(capsys):
    """The seeded start's sl3 is the flag of exp(t tau) g: at t = -1 and 2 that of the QR
    of the product to 1e-12, and at t = 20 the fixed flag's closed form to 1e-12."""
    g = linalg.to_float(sample_positive(sample_params(standard_word_w0(3), np.random.default_rng(3)), "lower").entries)
    s = 2.0 + math.sqrt(2.0)
    for t, want in (
        (-1.0, sl3_coords(np.linalg.qr(oracles.exp_generator_sum(3, -1.0).entries @ g)[0]).as_vector()),
        (2.0, sl3_coords(np.linalg.qr(oracles.exp_generator_sum(3, 2.0).entries @ g)[0]).as_vector()),
        (20.0, np.array([1.0, math.sqrt(2.0), 1.0] * 2) / s),
    ):
        code, out, _ = run_cli(capsys, "flow", "--t", str(t), "--seed", "3")
        sl3 = json.loads(out)["sl3"]
        assert code == 0
        assert np.max(np.abs(np.array(sl3["v"] + sl3["w"], dtype=float) - want)) <= 1e-12, t


@pytest.mark.parametrize("n,J", [(3, ()), (4, (2,)), (5, ())])
def test_flow_from_a_flag_scaled_far_from_one_starts_at_its_flag(tmp_path, capsys, n, J):
    """Scaling a column does not change the flag, so a flag scaled by 1e308 in one column,
    or by 1e150 or 1e-120 in all, starts at the chart point of the flag unscaled, to 1e-15
    relative to its norm: the identity's, and the all-ones lower triangular flag's."""
    args = ["flow", "--n", str(n), "--J", ",".join(map(str, J))] if J else ["flow", "--n", str(n)]
    path = tmp_path / "flag.json"

    def start(flag):
        path.write_text(json.dumps({"flag": flag}))
        code, out, err = run_cli(capsys, *args, "--from", str(path))
        assert code == 0 and err == "", flag
        return np.array(json.loads(out)["start"], dtype=float)

    ones = np.tril(np.ones((n, n)))
    big = np.eye(n)
    big[0, 0] = 1e308
    for flag, unscaled in ((big, np.eye(n)), (1e150 * ones, ones), (1e-120 * ones, ones)):
        want = start(unscaled.tolist())
        assert np.max(np.abs(start(flag.tolist()) - want)) <= 1e-15 * np.linalg.norm(want), flag[0, 0]


def test_flow_from_a_chart_point_has_no_flag(tmp_path, capsys):
    """A chart start carries no flag, so at (3, ()) there is no (v, w) to read off."""
    path = tmp_path / "chart.json"
    path.write_text('{"chart": [0.1, 0.2, 0, 0, 0, 0, 0.3]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(path), "--t", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["sl3"] == "no flag: the start is a chart point"


@pytest.mark.parametrize("n", range(2, 9))
def test_default_start_is_the_fraction_route_bit_for_bit(n, monkeypatch):
    """The seeded start of ``flow`` multiplies its product out once, as column-scaled ints:
    its binary64 matrix is bit for bit ``linalg.to_float(sample_positive(...).entries)``, and the line it
    charts bit for bit ``line_of`` on the parameters, over 20 seeds; no ``Fraction``
    matrix is built on the way.  The chart is of the defining module, dim n."""
    J = tuple(range(2, n))
    chart = cli.eigenchart(cli.build_rep(cli.lambda_for(n, J)))
    real_coords, lines, built = cli.chart_coords, [], []
    monkeypatch.setattr(cli, "chart_coords", lambda chart, line: lines.append(line) or real_coords(chart, line))
    monkeypatch.setattr(linalg, "_fraction_of_scaled", lambda *scaled: built.append(scaled))
    starts = [cli._load_start_point(RunConfig(n=n, J=J, seed=seed), None, chart) for seed in range(20)]
    monkeypatch.undo()
    assert built == [] and len(lines) == 20
    for seed, (p, g, origin), line in zip(range(20), starts, lines):
        params = sample_params(standard_word_w0(n), np.random.default_rng(seed))
        want_line = line_of(chart.rep, params, "lower")
        assert origin == "random TNN flag"
        assert g.tobytes() == linalg.to_float(sample_positive(params, "lower").entries).tobytes()
        assert line.tobytes() == want_line.tobytes()
        assert p.tobytes() == real_coords(chart, want_line).tobytes()


nonsingular_flags = st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3).filter(
    lambda m: oracles.det(oracles.rational_matrix(m)) != 0
)


@settings(max_examples=60, deadline=None)
@given(nonsingular_flags, st.sampled_from([0, 1]))
def test_flow_from_any_small_int_flag_reads_off_sl3_or_refuses(tmp_path_factory, flag, t):
    """Every nonsingular small-int flag either exits 2 with one line, or reports the
    SL(3) read-off of its flowed frame as finite (v, w) on the variety to 1e-9, or
    as outside the (v, w) chart."""
    code, out, err = _flow_from_flag(tmp_path_factory.mktemp("flag") / "flag.json", flag, t)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1
        return
    assert code == 0
    sl3 = json.loads(out)["sl3"]
    if isinstance(sl3, str):
        assert sl3 == "outside the (v, w) chart"
        return
    coords = Sl3Coords(tuple(map(float, sl3["v"])), tuple(map(float, sl3["w"])), "float")
    assert all(map(math.isfinite, coords.as_vector()))
    res = sl3_residuals(coords)
    assert max(abs(res[key]) for key in ("sum_v", "sum_w", "orthogonality")) <= 1e-9, (flag, t, sl3)


def test_flow_crossing_radius_defaults_from_boundary(capsys):
    code, out, _ = run_cli(capsys, "flow", "--seed", "3", "--crossing")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["radius"] is None  # no explicit radius given
    crossing = doc["crossing"]
    assert 0.0 < float(crossing["radius"]) < 0.1
    assert crossing["radius_rule"].startswith("1e-2 *")
    # an explicit --radius wins and is labelled as such
    code, out, _ = run_cli(capsys, "flow", "--seed", "3", "--crossing", "--radius", "0.5")
    doc = json.loads(out)
    assert float(doc["crossing"]["radius"]) == 0.5
    assert doc["crossing"]["radius_rule"] == "explicit"


def test_flow_keeps_extreme_chart_points_finite(tmp_path, capsys):
    """A zero coordinate stays zero where exp(t * rate) overflows, the norms of
    points near the ends of binary64 neither overflow nor underflow, and a tiny
    point is no zero point: each run writes nothing to stderr."""
    path = tmp_path / "chart.json"
    path.write_text('{"chart": [1, 0, 0, 0, 0, 0, 0]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(path), "--t", "-400")
    flowed = [float(x) for x in json.loads(out)["flowed"]]
    assert code == 0 and err == "" and math.isfinite(flowed[0]) and flowed[1:] == [0.0] * 6
    for x, norm in ((1e200, 2.6457513110645905e200), (1e-200, 2.6457513110645903e-200)):
        path.write_text(json.dumps({"chart": [x] * 7}))
        code, out, err = run_cli(capsys, "flow", "--from", str(path), "--t", "0")
        doc = json.loads(out)
        assert code == 0 and err == ""
        assert float(doc["norm_start"]) == float(doc["norm_flowed"]) == norm
    # the crossing lands at 1e-150, and at 1e-190, where its squared norm underflows
    for radius in ("1e-150", "1e-190"):
        code, out, err = run_cli(capsys, "flow", "--from", str(path), "--crossing", "--radius", radius)
        crossing = json.loads(out)["crossing"]
        assert code == 0 and err == "" and float(crossing["time"]) < 0.0
        assert abs(float(crossing["residual"])) <= 1e-12 * float(radius)
    # exp(130 r_k) overflows on the fastest rates, yet 1e-300 exp(130 r_k) is at most about
    # 2.4e19; at t = -600 the flowed 1e-200 reaches 1e537 and beyond, and is refused
    path.write_text(json.dumps({"chart": [1e-300] * 7}))
    code, out, err = run_cli(capsys, "flow", "--from", str(path), "--t", "-130")
    flowed = [float(x) for x in json.loads(out)["flowed"]]
    assert code == 0 and err == "" and 1e19 < max(flowed) < 1e20
    path.write_text(json.dumps({"chart": [1e-200] * 7}))
    code, out, err = run_cli(capsys, "flow", "--from", str(path), "--t", "-600")
    assert code == 2 and out == "" and "overflows binary64" in err


def test_flow_refuses_a_chart_norm_past_binary64(tmp_path, capsys):
    """Finite coordinates whose norm overflows binary64 are refused in one line, not
    written as a report with ``"inf"`` norms: seven coordinates of 1e308 at the start,
    and seven of 5e307 (norm 1.32e308) that the flow back to t = -0.1 takes past it."""
    path = tmp_path / "chart.json"
    for chart, t, what in (([1e308] * 7, "0", "start"), ([5e307] * 7, "-0.1", "flow to t = -0.1")):
        path.write_text(json.dumps({"chart": chart}))
        for extra in ((), ("--crossing",)):
            code, out, err = run_cli(capsys, "flow", "--from", str(path), f"--t={t}", *extra)
            assert code == 2 and out == "" and len(err.splitlines()) == 1, (chart[0], t, extra)
            assert f"chart norm of the {what} overflows binary64" in err
    code, out, _ = run_cli(capsys, "flow", "--from", str(path), "--t", "0")
    assert code == 0 and float(json.loads(out)["norm_start"]) == 1.3228756555322954e308


def test_fold_defaults_to_n4(capsys):
    code, out, _ = run_cli(capsys, "fold", "--count", "6", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["passed"] is True


@pytest.mark.parametrize("argv", [("--n", "6", "--count", "2", "--seed", "0"),
                                  ("--n", "8", "--count", "30", "--seed", "1")])
def test_fold_passes_past_n4(capsys, argv):
    """At n = 6 and 8 the flowed flags agree to round-off, and the control still breaks."""
    code, out, _ = run_cli(capsys, "fold", *argv)
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True and doc["control_broken"] is True
    assert float(doc["worst_gap"]) <= 1e-12


def test_figure_svg(capsys):
    code, out, _ = run_cli(capsys, "figure")
    assert code == 0
    assert out.startswith("<svg") and out.count("data-vertex=") == 6


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 9, "count": 2}')
    code, out, _ = run_cli(
        capsys, "sample", "--config", str(cfg), "--count", "1"
    )
    doc = json.loads(out)
    assert doc["meta"]["count"] == 1  # flag wins
    assert doc["meta"]["seed"] == 9  # config fills the gap


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("TNNFLOW_SEED", "31")
    _, out, _ = run_cli(capsys, "sample", "--count", "1")
    assert json.loads(out)["meta"]["seed"] == 31
    # explicit flag still beats the environment
    _, out, _ = run_cli(capsys, "sample", "--count", "1", "--seed", "4")
    assert json.loads(out)["meta"]["seed"] == 4
    # only a command that reads the seed consults the environment
    monkeypatch.setenv("TNNFLOW_SEED", "not a seed")
    code, out, err = run_cli(capsys, "sample", "--count", "1")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    # the refusal names the setting, not the parse that failed
    assert "TNNFLOW_SEED" in err and "int()" not in err, err
    code, out, _ = run_cli(capsys, "pinning", "--n", "3")
    assert code == 0 and out.startswith("pinning for SL(3)")


def test_a_bad_J_is_refused_by_name():
    """A ``--J`` that is no comma list of ints exits 2 with one line that names the
    flag and no private function."""
    for text in ("a", "1,x", "2.5", "1;3"):
        code, out, err = _run_quietly(["embed", "--n", "4", "--J", text])
        assert code == 2 and out == "" and len(err.splitlines()) == 1, (text, err)
        assert "--J" in err and "_parse_J" not in err, (text, err)


def test_negative_seed_is_refused_by_name(monkeypatch, capsys, tmp_path):
    """A negative seed from the flag, the config file or the environment exits 2
    with one line that names the setting, before any generator is made."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": -1}')
    for env, argv in ((None, ("--seed", "-1")), (None, ("--config", str(cfg))), ("-3", ())):
        if env is None:
            monkeypatch.delenv("TNNFLOW_SEED", raising=False)
        else:
            monkeypatch.setenv("TNNFLOW_SEED", env)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1 and "seed" in err, (env, argv, err)


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cells", "--n", "4")
    assert code == 2 and "SL(3)" in err
    # the census and its figure exist for the complete SL(3) flag variety only
    for argv in (("cells", "--J", "2"), ("figure", "--n", "4"), ("figure", "--J", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1 and "SL(3)" in err, argv
    code, _, err = run_cli(capsys, "fold", "--n", "5")
    assert code == 2
    for count in ("1", "3"):  # n = 2 has no mirrored pair to untie
        code, out, err = run_cli(capsys, "fold", "--n", "2", "--count", count)
        assert code == 2 and out == "" and len(err.splitlines()) == 1 and "n >= 4" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"whatever": 1}')
    code, _, err = run_cli(capsys, "embed", "--config", str(bad))
    assert code == 2 and "unknown config keys" in err and len(err.splitlines()) == 1
    # a config value of the wrong type is refused, not run or left to a traceback
    for command, text in [
        ("sample", '{"n": 3.5}'),
        ("sample", '{"seed": 1e30}'),
        ("embed", '{"J": 2}'),
        ("embed", '{"J": [1, true]}'),
        ("flow", '{"radius": "0.5"}'),
        ("flow", '{"t": "1"}'),
        ("flow", '{"float_tol": null}'),
        ("sample", '{"count": true}'),
        ("sample", '{"out": 3}'),
        ("sample", '3'),
        ("embed", '{"fmt": "xml"}'),
        ("sample", '{"fmt": "text"}'),
        ("embed", '{"n": 4, "J": [2, 2]}'),
    ]:
        bad.write_text(text)
        code, out, err = run_cli(capsys, command, "--config", str(bad))
        assert code == 2 and out == "" and len(err.splitlines()) == 1, (command, text)
    small = tmp_path / "small_flag.json"
    for text in ('{"flag": [[1,0],[0,1]]}', '{"flag": [[1,0,0],[0,1,0]]}', '{"flag": []}'):
        small.write_text(text)
        code, out, err = run_cli(capsys, "flow", "--from", str(small))
        assert code == 2 and out == "" and len(err.splitlines()) == 1 and "expected 3 x 3" in err, text
    nan = tmp_path / "nan_chart.json"
    nan.write_text('{"chart": ["nan",0,0,0,0,0,0]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(nan), "--crossing", "--radius", "0.5")
    assert code == 2 and out == "" and "finite" in err
    nan.write_text('{"flag": [[1,0,0],[0,"nan",0],[0,0,1]]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(nan))
    assert code == 2 and out == "" and "finite" in err
    # entries that are not numbers, and a flag on the chart's equator
    for text in ('{"chart": [1, null]}', '{"chart": 5}', '{"flag": [[1,0,0],[0,null,0],[0,0,1]]}'):
        nan.write_text(text)
        code, out, err = run_cli(capsys, "flow", "--from", str(nan))
        assert code == 2 and out == "" and len(err.splitlines()) == 1, text
    nan.write_text('{"flag": [[1,0,0],[0,1,0],[-1,0,1]]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(nan))
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "hyperplane at infinity" in err
    code, out, err = run_cli(capsys, "flow", "--t=-1e4", "--seed", "3")
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "overflows" in err
    code, out, err = run_cli(capsys, "flow", "--crossing", "--radius", "inf")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    # these crossings land, although the squared norm along the trajectory
    # overflows or underflows binary64 before it reaches them
    for argv in (("--radius", "1e300"), ("--radius", "1e-300"), ("--n", "4", "--radius", "1e300")):
        code, out, err = run_cli(capsys, "flow", "--crossing", *argv)
        crossing = json.loads(out)["crossing"]
        assert code == 0 and err == "", argv
        assert abs(float(crossing["residual"])) <= 1e-12 * float(crossing["radius"]), argv
    # repeated J indices, and tolerances that are not finite
    for argv in (
        ("embed", "--n", "4", "--J", "2,2"),
        ("flow", "--t", "2", "--seed", "3", "--crossing", "--radius", "0.5", "--tol-bisect", "inf"),
        ("flow", "--t", "2", "--seed", "3", "--tol-float", "inf"),
        ("cells", "--tol-vanish", "inf"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv


def test_verify_quick_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "11", "--count", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert set(doc["sections"]) == {
        "axioms",
        "commutation",
        "invariance",
        "folding",
        "census",
        "exp_total_positivity",
        "fixed_point",
    }


def test_flow_from_refuses_entries_that_are_not_reals(capsys, tmp_path):
    """A start file's entries follow the config file's rule for a real: a string, a bool,
    null or an int past binary64 exits 2 with one line naming the file's key, as do a
    chart that is not a list and a flag whose rows differ in length; a NaN literal, a
    float, is refused as not finite."""
    path = tmp_path / "start.json"
    big = "1" + "0" * 400
    for text, key in [('{"flag": [["1",0,0],[0,"1e0",0],[0,0,1]]}', "flag"),
                      ('{"chart": [true,false,0,0,0,0,0]}', "chart"),
                      ('{"chart": ["x",0,0,0,0,0,0]}', "chart"),
                      ('{"flag": [[1,0,0],[0,1,0],[0,0,%s]]}' % big, "flag"),
                      ('{"chart": [%s,0,0,0,0,0,0]}' % big, "chart"),
                      ('{"chart": {"a": 1}}', "chart"),
                      ('{"flag": [[1,0,0],[0,1],[0,0,1]]}', "flag")]:
        path.write_text(text)
        code, out, err = run_cli(capsys, "flow", "--from", str(path))
        assert (code, out) == (2, ""), text
        assert len(err.splitlines()) == 1 and err.startswith(f"error: point file key '{key}' must be a list"), text
    path.write_text('{"chart": [NaN,0,0,0,0,0,0]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(path))
    assert (code, out, err) == (2, "", "error: chart point entries must be finite\n")


def test_verify_makes_no_exact_det_call(capsys):
    """Every exact element verify builds has det 1 by construction, so none is re-proved:
    the package holds no exact determinant, and its constructor refuses the exact tag."""
    assert not any(hasattr(linalg, name) for name in ("det", "_bareiss"))
    code, _, _ = run_cli(capsys, "verify", "--seed", "7", "--count", "10")
    assert code == 0
    with pytest.raises(ValueError, match="sample_positive"):
        GroupElement(oracles.rational_identity(3), RATIONAL)


def test_verify_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--seed", "5")
    _, out2, _ = run_cli(capsys, "verify", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify", "--seed", "6")
    assert out1 != out3


# The settings each subcommand reads, and a value of the right type for each:
# as a flag and as a config-file value.
READS = {
    "pinning": ("n", "fmt", "out"),
    "sample": ("n", "seed", "count", "out"),
    "embed": ("n", "J", "fmt", "out"),
    "flow": ("n", "J", "seed", "t", "radius", "float_tol", "bisect_tol", "out"),
    "verify": ("seed", "count", "out"),
    "cells": ("n", "J", "vanish_tol", "fmt", "out"),
    "figure": ("n", "J", "out"),
    "fold": ("n", "seed", "count", "out"),
}
_VALUES = {
    "n": ("--n", "5", 5),
    "J": ("--J", "2", [2]),
    "seed": ("--seed", "5", 5),
    "count": ("--count", "2", 2),
    "t": ("--t", "1", 1.0),
    "radius": ("--radius", "0.5", 0.5),
    "float_tol": ("--tol-float", "1e-10", 1e-10),
    "bisect_tol": ("--tol-bisect", "1e-12", 1e-12),
    "vanish_tol": ("--tol-vanish", "1e-9", 1e-9),
    "fmt": ("--format", "json", "json"),
    "out": ("--out", "report.json", None),
}
UNREAD = [(command, key) for command, keys in READS.items() for key in _VALUES if key not in keys]


# Every subcommand's options as (option strings, dest, default, choices, type,
# help): --config, the flag of each setting in READS, and the command's own.
_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, "show this help message and exit")
_CONFIG = (("--config",), "config", None, None, None, "JSON config file (flags take precedence)")
_FLAGS = {
    "n": (("--n",), "n", None, None, int, None),
    "J": (("--J",), "J", None, None, _parse_J, 'comma list, e.g. "2" or "1,3"; "" = complete'),
    "seed": (("--seed",), "seed", None, None, int, None),
    "count": (("--count",), "count", None, None, int, None),
    "t": (("--t",), "t", None, None, float, None),
    "radius": (("--radius",), "radius", None, None, float, None),
    "float_tol": (("--tol-float",), "float_tol", None, None, float, None),
    "bisect_tol": (("--tol-bisect",), "bisect_tol", None, None, float, None),
    "vanish_tol": (("--tol-vanish",), "vanish_tol", None, None, float, None),
    "out": (("--out",), "out", None, None, None, None),
}
_TEXT_JSON = (("--format",), "fmt", None, ("text", "json"), None, None)


def _flags(command, fmt=None):
    return [_HELP, _CONFIG, *(_FLAGS[k] for k in READS[command] if k != "fmt"), *([fmt] if fmt else [])]


PARSER_TABLE = {
    "pinning": ("print Chevalley generators and their sum", _flags("pinning", _TEXT_JSON)),
    "sample": (
        "sample TP elements with minor certificates",
        [*_flags("sample"), (("--side",), "side", "group", ("group", "upper", "lower"), None, None)],
    ),
    "embed": ("build a module and its eigenbasis chart", _flags("embed", _TEXT_JSON)),
    "flow": (
        "flow a chart point or flag",
        [
            *_flags("flow"),
            (("--from",), "from_path", None, None, None, "JSON file with a 'chart' or 'flag' entry"),
            (
                ("--crossing",),
                "crossing",
                False,
                None,
                None,
                "locate the sphere crossing (--radius, or 1e-2 * smallest sampled boundary norm)",
            ),
        ],
    ),
    "verify": ("run the full property suite", _flags("verify")),
    "cells": ("SL(3) cell census and face poset", _flags("cells", _TEXT_JSON)),
    "fold": ("diagram-flip fixed-locus flow check", _flags("fold")),
    "figure": ("schematic drawing of the SL(3) decomposition", _flags("figure")),
}


def test_parser_matches_its_recorded_table():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(PARSER_TABLE)
    assert [(a.dest, a.help) for a in subs._choices_actions] == [
        (name, help_text) for name, (help_text, _) in PARSER_TABLE.items()
    ]
    for name, (_, table) in PARSER_TABLE.items():
        got = {
            tuple(a.option_strings): (a.dest, a.default, a.choices, a.type, a.help)
            for a in subs.choices[name]._actions
        }
        assert got == {row[0]: row[1:] for row in table}, name


@pytest.mark.parametrize("command", list(PARSER_TABLE))
def test_every_subcommand_prints_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: tnnflow {command}")


def test_reused_parser_leaks_nothing_between_calls(capsys):
    """One parser serves every call of a process, and each report's bytes equal
    those of a fresh ``python -m tnnflow`` process."""
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "3", "--positive"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and len(captured.err.splitlines()) == 1
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: tnnflow sample")
    sides = []
    for argv in (
        ["sample", "--n", "3", "--side", "lower", "--count", "2", "--seed", "4"],
        ["sample", "--n", "3", "--count", "2", "--seed", "4"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "tnnflow", *argv], capture_output=True)
        assert code == fresh.returncode == 0 and out.encode() == fresh.stdout
        sides.append({rec["side"] for rec in json.loads(out)["samples"]})
    assert sides == [{"lower"}, {"group"}]


def test_parser_takes_45_flags():
    """--config and each read setting's flag, per command, plus --side, --from and --crossing."""
    assert sum(len(table) - 1 for _, table in PARSER_TABLE.values()) == 45
    assert sum(map(len, READS.values())) == 34  # the config keys


@pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
def test_settings_a_command_does_not_read_are_refused(capsys, tmp_path, command, key):
    """A flag or config key the command does not read exits 2 with one line, and writes nothing."""
    flag, text, value = _VALUES[key]
    with pytest.raises(SystemExit) as exc:
        main([command, flag, text])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: unrecognized arguments")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "unknown config keys" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("pinning", "--format", "json"),
        ("sample", "--count", "1"),
        ("embed", "--format", "json"),
        ("flow", "--seed", "3"),
        ("verify", "--count", "1"),
        ("cells", "--format", "json"),
        ("fold", "--count", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_meta_echoes_exactly_the_settings_read(capsys, argv):
    command = argv[0]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    meta = json.loads(out)["meta"]
    extra = {"counts"} if command == "verify" else set()
    assert set(meta) == {"command", *READS[command]} | extra
    assert meta["command"] == command and meta["out"] is None


@pytest.mark.parametrize("argv", [("verify", "--count", "1"), ("embed", "--format", "json"), ("fold", "--count", "1")],
                         ids=lambda argv: argv[0])
def test_report_bytes_do_not_depend_on_where_they_are_written(tmp_path, capsys, argv):
    """Two --out paths, and stdout, give identical bytes: meta reads out as null."""
    written = []
    for name in ("a.json", "deeper/b.json"):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        assert run_cli(capsys, *argv, "--out", str(path))[:2] == (0, "")
        written.append(path.read_bytes())
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and written == [out.encode()] * 2
    assert json.loads(out)["meta"]["out"] is None


def test_report_diff_prints_each_leaf_that_moved(tmp_path, capsys):
    """scripts/report_diff.py prints the path, old and new value of each differing leaf,
    a missing one as (absent), an int against an equal float as moved, and nothing
    for equal reports; it exits 0 either way."""
    script = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"))
    old = {"meta": {"seed": 7}, "s": {"cases": [{"t": 0.1, "worst": "1e-13"}, {"w": 1}], "t": 0.1}}
    new = {"meta": {"seed": 7}, "s": {"cases": [{"t": 0.1, "worst": "8e-14"}, {"w": 1.0}, {"w": 2}]}}
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, doc in zip(paths, (old, new)):
        path.write_text(json.dumps(doc))
    assert script["main"]([str(p) for p in paths]) == 0
    assert capsys.readouterr().out.splitlines() == [
        '$.s.cases[0].worst  "1e-13"  ->  "8e-14"',
        "$.s.cases[1].w  1  ->  1.0",
        '$.s.cases[2]  (absent)  ->  {"w": 2}',
        "$.s.t  0.1  ->  (absent)",
    ]
    assert script["main"]([str(paths[0])] * 2) == 0 and capsys.readouterr().out == ""
