"""The command-line surface: output contracts, config precedence, exit codes."""

import argparse
import hashlib
import json

import pytest

from tnnflow import linalg
from tnnflow.chevalley import RATIONAL, GroupElement
from tnnflow.cli import RunConfig, _parse_J, build_parser, main


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
        assert "/" in rec["min_minor"] or rec["min_minor"].isdigit()
    # --side is the one spelling of the sampled side
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "3", "--side", "lower", "--positive"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--n", "3", "--count", "3"),
            "291a3d732272b1267ce48757b2f283f21c3e85331ee95a7c269654c76dce642c",
        ),
        (
            ("--n", "6", "--side", "group", "--count", "3", "--seed", "0"),
            "748855875ce5c0739a19963bfea43aa61f6ec8c44c5cfb1daba5f1bf321c48a4",
        ),
        (
            ("--n", "6", "--side", "lower", "--count", "3", "--seed", "0"),
            "30d75634ed19ec47aa075c73077a53f3e3170c0ec9fed633381168b026781dfc",
        ),
        (
            ("--n", "8", "--side", "group", "--count", "1", "--seed", "0"),
            "92624db370eaff2261666e324541e73cc2f4ecb4019fe4d586a677c78aa80481",
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


@pytest.mark.parametrize("argv", [("--n", "6", "--count", "2", "--seed", "0"),
                                  ("--n", "8", "--count", "30", "--seed", "1")])
def test_fold_passes_past_n4(capsys, argv):
    """At n = 6 and 8 the flowed flags agree to round-off, and the control still breaks."""
    code, out, _ = run_cli(capsys, "fold", *argv)
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True and doc["control_broken"] is True
    assert float(doc["worst_gap"]) <= 1e-10


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
    # none of these crossings lies on its sphere: the radius is infinite, or
    # the norm along the trajectory overflows or underflows before reaching it
    for argv in (("--radius", "inf"), ("--radius", "1e300"), ("--radius", "1e-300"),
                 ("--n", "4", "--radius", "1e300")):
        code, out, err = run_cli(capsys, "flow", "--crossing", *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
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
