"""The command-line surface: output contracts, config precedence, exit codes."""

import hashlib
import json

import pytest

from tnnflow.cli import RunConfig, main


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
        RunConfig(float_tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(radius=-1.0)
    with pytest.raises(ValueError):
        RunConfig(radius=float("nan"))
    with pytest.raises(ValueError):
        RunConfig(t=float("nan"))


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
    code, out, _ = run_cli(capsys, "sample", "--n", "3", "--positive", "--count", "3", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_certified"] is True
    assert len(doc["samples"]) == 3
    for rec in doc["samples"]:
        assert rec["positivity"] == "TotallyPositive"
        assert "/" in rec["min_minor"] or rec["min_minor"].isdigit()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--n", "3", "--count", "3"),
            "061209cf77187cb9cd0cfcb19cf77db490cfaa6e9f41b44ed48642f80dbe0b26",
        ),
        (
            ("--n", "6", "--side", "group", "--count", "3", "--seed", "0", "--format", "json"),
            "b154ae50dba67c93f1e090366e346976103cea80c66931ed2de6d0f53a88cedf",
        ),
        (
            ("--n", "6", "--side", "lower", "--count", "3", "--seed", "0", "--format", "json"),
            "e083823ac1b7b25fd29eff2395b8a1776c861c4f14dab50b17dea267a699a320",
        ),
    ],
    ids=["n3", "n6-group", "n6-lower"],
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


def test_fold_defaults_to_n4(capsys):
    code, out, _ = run_cli(capsys, "fold", "--count", "6", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["passed"] is True


def test_figure_svg(capsys):
    code, out, _ = run_cli(capsys, "figure")
    assert code == 0
    assert out.startswith("<svg") and out.count("data-vertex=") == 6


def test_figure_json(capsys):
    code, out, _ = run_cli(capsys, "figure", "--format", "json")
    assert json.loads(out)["cell_count"] == 19


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


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cells", "--n", "4")
    assert code == 2 and "SL(3)" in err
    code, _, err = run_cli(capsys, "fold", "--n", "5")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"whatever": 1}')
    code, _, err = run_cli(capsys, "embed", "--config", str(bad))
    assert code == 2 and "unknown config keys" in err
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
    code, out, err = run_cli(capsys, "flow", "--t=-1e4", "--seed", "3", "--format", "json")
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "overflows" in err


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


def test_verify_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--seed", "5")
    _, out2, _ = run_cli(capsys, "verify", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify", "--seed", "6")
    assert out1 != out3
