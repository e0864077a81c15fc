"""The command-line surface: output contracts, config precedence, exit codes."""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tnnflow
from tnnflow import cli, linalg
from tnnflow.chevalley import RATIONAL, GroupElement, exp_generator_sum
from tnnflow.cli import RunConfig, _parse_J, build_parser, main
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
    as ``min_solid_minor`` (checked against ``linalg.det`` of every solid
    submatrix); a unipotent record, certified TNN by its interval minors,
    carries ``min_minor`` = 0, the least over all its minors."""
    code, out, _ = run_cli(capsys, "sample", "--n", "4", "--side", side, "--count", "2", "--seed", "1")
    assert code == 0
    for rec in json.loads(out)["samples"]:
        margins = {key: rec[key] for key in ("min_minor", "min_solid_minor") if key in rec}
        if side != "group":
            assert margins == {"min_minor": "0/1"}
            continue
        g = linalg.rational_matrix(rec["matrix"])
        solid = [linalg.det(g[i : i + k, j : j + k]) for k in range(1, 5) for i in range(5 - k) for j in range(5 - k)]
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


def test_embed_summary(capsys):
    code, out, _ = run_cli(capsys, "embed", "--n", "3", "--J", "")
    assert code == 0
    assert "dim = 8" in out
    assert "Weyl formula: 8" in out


def test_cells_summary_line(capsys):
    code, out, _ = run_cli(capsys, "cells", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "19 cells: f = (6, 8, 4, 1)"


def test_cells_json_document(capsys):
    code, out, _ = run_cli(capsys, "cells", "--n", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["cell_count"] == 19
    assert doc["bruhat_match"] is True and doc["vertex_labels_match"] is True


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["flow", "--from", str(path), "--t", str(t)])
    return code, out.getvalue(), err.getvalue()


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
    want = sl3_coords(linalg.rational_matrix(flag)).as_vector()
    assert max(abs(x - float(y)) for x, y in zip(got, want)) <= 1e-14


def test_flow_reads_sl3_off_the_flowed_flag(capsys):
    """The seeded start's sl3 is the flag of exp(t tau) g: at t = -1 and 2 that of the QR
    of the product to 1e-12, and at t = 20 the fixed flag's closed form to 1e-12."""
    g = sample_positive(sample_params(standard_word_w0(3), np.random.default_rng(3)), "lower").to_float().entries
    s = 2.0 + math.sqrt(2.0)
    for t, want in (
        (-1.0, sl3_coords(np.linalg.qr(exp_generator_sum(3, -1.0).entries @ g)[0]).as_vector()),
        (2.0, sl3_coords(np.linalg.qr(exp_generator_sum(3, 2.0).entries @ g)[0]).as_vector()),
        (20.0, np.array([1.0, math.sqrt(2.0), 1.0] * 2) / s),
    ):
        code, out, _ = run_cli(capsys, "flow", "--t", str(t), "--seed", "3")
        sl3 = json.loads(out)["sl3"]
        assert code == 0
        assert np.max(np.abs(np.array(sl3["v"] + sl3["w"], dtype=float) - want)) <= 1e-12, t


def test_flow_from_a_chart_point_has_no_flag(tmp_path, capsys):
    """A chart start carries no flag, so at (3, ()) there is no (v, w) to read off."""
    path = tmp_path / "chart.json"
    path.write_text('{"chart": [0.1, 0.2, 0, 0, 0, 0, 0.3]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(path), "--t", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["sl3"] == "no flag: the start is a chart point"


nonsingular_flags = st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3).filter(
    lambda m: linalg.det(linalg.rational_matrix(m)) != 0
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


def test_figure_json(capsys):
    code, out, _ = run_cli(capsys, "figure", "--format", "json")
    assert json.loads(out)["cell_count"] == 19


def test_figure_honours_config_format(capsys, tmp_path):
    _, flag_out, _ = run_cli(capsys, "figure", "--format", "json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"fmt": "json"}')
    code, out, _ = run_cli(capsys, "figure", "--config", str(cfg))
    assert code == 0 and out == flag_out
    # the flag still beats the config file
    code, out, _ = run_cli(capsys, "figure", "--config", str(cfg), "--format", "svg")
    assert code == 0 and out.startswith("<svg")


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
    code, out, _ = run_cli(capsys, "pinning", "--n", "3")
    assert code == 0 and out.startswith("pinning for SL(3)")


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
    small.write_text('{"flag": [[1,0],[0,1]]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(small))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    nan = tmp_path / "nan_chart.json"
    nan.write_text('{"chart": ["nan",0,0,0,0,0,0]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(nan), "--crossing", "--radius", "0.5")
    assert code == 2 and out == "" and "finite" in err
    nan.write_text('{"flag": [[1,0,0],[0,"nan",0],[0,0,1]]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(nan))
    assert code == 2 and out == "" and "finite" in err
    # entries that are not numbers, and a flag whose chart point overflows
    for text in ('{"chart": [1, null]}', '{"chart": 5}', '{"flag": [[1,0,0],[0,null,0],[0,0,1]]}'):
        nan.write_text(text)
        code, out, err = run_cli(capsys, "flow", "--from", str(nan))
        assert code == 2 and out == "" and len(err.splitlines()) == 1, text
    nan.write_text('{"flag": [[1e308,0,0],[0,1,0],[0,0,1]]}')
    code, out, err = run_cli(capsys, "flow", "--from", str(nan))
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "finite" in err
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
        "representation_dims",
    }


def test_verify_makes_no_exact_det_call(capsys, monkeypatch):
    """Every exact element verify builds has det 1 by construction, so none is re-proved."""
    calls = []
    det = linalg.det

    def counted(a):
        calls.append(a.shape)
        return det(a)

    monkeypatch.setattr(linalg, "det", counted)
    code, _, _ = run_cli(capsys, "verify", "--seed", "7", "--count", "10")
    assert code == 0
    assert calls == []
    # the counter sees the checked constructor
    GroupElement(linalg.rational_identity(3), RATIONAL)
    assert calls == [(3, 3)]


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
    "figure": ("n", "J", "vanish_tol", "fmt", "out"),
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
    "figure": (
        "schematic drawing of the SL(3) decomposition",
        _flags("figure", (("--format",), "fmt", None, ("svg", "json"), None, None)),
    ),
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


def test_parser_takes_47_flags():
    """--config and each read setting's flag, per command, plus --side, --from and --crossing."""
    assert sum(len(table) - 1 for _, table in PARSER_TABLE.values()) == 47
    assert sum(map(len, READS.values())) == 36  # the config keys


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
        ("figure", "--format", "json"),
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
