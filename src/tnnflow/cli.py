"""Command-line surface: pinnings, sampling, embeddings, flows, and reports.

Subcommands
-----------
pinning   print the Chevalley generator matrices and their sum
sample    draw factorized totally positive elements with minor certificates
embed     build a highest-weight module and its eigenbasis chart
flow      flow a chart point / flag, optionally locating a sphere crossing
verify    run the property suite of tnnflow.suite; exit nonzero on any failure
cells     SL(3) cell census + face poset (summary line and JSON document)
fold      check the diagram-flip fixed locus is preserved by the flow
figure    emit the schematic cell-decomposition drawing (SVG or JSON)

Each command takes, as flags and as config-file keys, only the settings it
reads (``_COMMANDS``), and echoes exactly those into the report's "meta"
block.  Precedence is flags > config file (--config, JSON) > the environment
variable TNNFLOW_SEED (seed only, where the command reads it) > built-in
defaults.  All JSON output goes through the canonical encoder, so identical
configuration produces byte-identical bytes -- there are no timestamps and no
machine identifiers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .cells import (
    census_payload,
    census_verdict,
    enumerate_cells,
    face_poset,
    figure_svg,
    limit_report,
    validate_poset,
)
from .chevalley import FLOAT, GroupElement, build_pinning, generator_sum
from .embedding import build_rep, chart_coords, eigenchart, lambda_for, line_of, weyl_dim
from .flow import DiagonalFlow, _frames_at, default_ball_radius, flow_point, has_overflow, sphere_crossing
from .folding import build_folding, fixed_locus_flow_check
from .serialize import dumps_canonical, encode_tree
from .suite import run_suite
from .totpos import (
    Positivity,
    _certificate,
    _scaled_product,
    sample_params,
    sample_positive,
    sl3_coords,
    sl3_membership,
    standard_word_w0,
)

__all__ = ["RunConfig", "build_parser", "main"]

@dataclass(frozen=True)
class RunConfig:
    """Effective run configuration after flag / config-file / default merge."""

    n: int = 3
    J: tuple = ()
    seed: int = 0
    count: int = 100
    t: float = 1.0
    radius: float | None = None
    float_tol: float = 1e-10
    bisect_tol: float = 1e-12
    vanish_tol: float = 1e-9
    fmt: str = "text"
    out: str | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        for name in ("float_tol", "bisect_tol", "vanish_tol"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails this too
                raise ValueError(f"{name} must be positive and finite")
        bad = [j for j in self.J if not 1 <= j <= self.n - 1]
        if bad:
            raise ValueError(f"J indices {bad} out of range for n = {self.n}")
        if len(set(self.J)) != len(self.J):
            raise ValueError(f"J indices {sorted(self.J)} repeat")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.radius is not None and not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")

    def meta(self, command: str) -> dict:
        """The command name and the value of each setting the command reads."""
        out = {"command": command}
        for name in _COMMANDS[command].settings:
            out[name] = sorted(self.J) if name == "J" else getattr(self, name)
        return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _parse_J(text) -> tuple:
    if text is None:
        return None
    items = [part.strip() for part in str(text).split(",")]
    return tuple(sorted(int(p) for p in items if p))


class _Setting(NamedTuple):
    flag: str
    type: object  # the argparse type
    expected: str | None  # what a config-file value must be, in words
    check: object  # check(value) -> bool, on the config-file value
    help: str | None = None


# each RunConfig field once; "fmt" takes its command's --format choices, on
# the command line and in a config file
_SETTINGS = {
    "n": _Setting("--n", int, "an int", _is_int),
    "J": _Setting(
        "--J",
        _parse_J,
        "a list of ints",
        lambda x: isinstance(x, list) and all(map(_is_int, x)),
        'comma list, e.g. "2" or "1,3"; "" = complete',
    ),
    "seed": _Setting("--seed", int, "an int", _is_int),
    "count": _Setting("--count", int, "an int", _is_int),
    "t": _Setting("--t", float, "a number", _is_real),
    "radius": _Setting("--radius", float, "a number or null", lambda x: x is None or _is_real(x)),
    "float_tol": _Setting("--tol-float", float, "a number", _is_real),
    "bisect_tol": _Setting("--tol-bisect", float, "a number", _is_real),
    "vanish_tol": _Setting("--tol-vanish", float, "a number", _is_real),
    "fmt": _Setting("--format", None, None, None),
    "out": _Setting("--out", None, "a string or null", lambda x: x is None or isinstance(x, str)),
}


def _resolve_config(args) -> RunConfig:
    """Merge flags over config file over env/default into a RunConfig.

    Only the settings the command reads are taken.  The command's built-in
    defaults (``_DEFAULTS``) sit below the config file, e.g. the fold check
    defaulting to n = 4 and the figure to SVG.  A config-file key the command
    does not read, or a value without its setting's type (``_SETTINGS``, and
    for ``fmt`` the command's ``--format`` choices), raises ``ValueError``,
    which ``main`` turns into exit 2.  ``TNNFLOW_SEED`` is read only by
    commands that read ``seed``.
    """
    command = _COMMANDS[args.command]
    values = dict(_DEFAULTS.get(args.command, {}))
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(command.settings))
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {unknown}")
        for key, value in file_cfg.items():
            if key == "fmt":
                expected, ok = f"one of {list(command.formats)}", value in command.formats
            else:
                expected, ok = _SETTINGS[key].expected, _SETTINGS[key].check(value)
            if not ok:
                raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
        if "J" in file_cfg:
            file_cfg["J"] = tuple(file_cfg["J"])
        values.update(file_cfg)
    for key in command.settings:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if "seed" in command.settings and "seed" not in values:
        env = os.environ.get("TNNFLOW_SEED")
        if env is not None:
            values["seed"] = int(env)
    return RunConfig(**values)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(payload: dict, cfg: RunConfig) -> None:
    _emit(dumps_canonical(encode_tree(payload)), cfg.out)


def _int_matrix(a) -> list:
    return [[int(x) for x in row] for row in np.asarray(a)]


def _compact(rows) -> str:
    return json.dumps(rows, separators=(",", ","))


# ---------------------------------------------------------------------------
# subcommands


def cmd_pinning(cfg: RunConfig, args) -> int:
    pin = build_pinning(cfg.n)
    tau = _int_matrix(generator_sum(pin))
    if cfg.fmt == "json":
        payload = {
            "meta": cfg.meta("pinning"),
            "tau": tau,
            "raising": {str(i): _int_matrix(pin.raising(i)) for i in pin.indices},
            "lowering": {str(i): _int_matrix(pin.lowering(i)) for i in pin.indices},
            "coroots": {str(i): _int_matrix(pin.coroot(i)) for i in pin.indices},
        }
        _emit_report(payload, cfg)
        return 0
    lines = [f"pinning for SL({cfg.n})", f"tau = {_compact(tau)}"]
    for i in pin.indices:
        lines.append(f"e_{i} = {_compact(_int_matrix(pin.raising(i)))}")
    for i in pin.indices:
        lines.append(f"f_{i} = {_compact(_int_matrix(pin.lowering(i)))}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


# the record key of a sample's margin, by the minors it is the least of: a group
# sample certified by its solid minors alone carries the least solid minor, and
# one with a negative solid minor, which no factorization has, carries none
_MARGIN_KEYS = {"solid": "min_solid_minor", "all": "min_minor"}


def cmd_sample(cfg: RunConfig, args) -> int:
    side = args.side
    rng = np.random.default_rng(cfg.seed)
    word = standard_word_w0(cfg.n)
    records = []
    all_certified = True
    for k in range(cfg.count):
        params = sample_params(word, rng, group=(side == "group"))
        scaled = _scaled_product(params, side)
        verdict, margin, minors = _certificate(*scaled)
        record = {
            "index": k,
            "side": side,
            "word": list(word.letters),
            "params": list(params.t),
            "matrix": linalg._fraction_of_scaled(*scaled),
            "positivity": verdict,
        }
        if minors is not None:
            record[_MARGIN_KEYS[minors]] = margin
        if params.torus is not None:
            record["torus"] = list(params.torus)
        want = Positivity.TOTALLY_POSITIVE if side == "group" else Positivity.TOTALLY_NONNEGATIVE
        record["certified"] = verdict is want
        all_certified = all_certified and record["certified"]
        records.append(record)
    payload = {"meta": cfg.meta("sample"), "samples": records, "all_certified": all_certified}
    _emit_report(payload, cfg)
    return 0 if all_certified else 1


def cmd_embed(cfg: RunConfig, args) -> int:
    weight = lambda_for(cfg.n, cfg.J)
    rep = build_rep(weight)
    chart = eigenchart(rep)
    flow = DiagonalFlow.from_chart(chart)
    if cfg.fmt == "json":
        payload = {
            "meta": cfg.meta("embed"),
            "weight": list(weight.coeffs),
            "dim": rep.dim,
            "weyl_dim": weyl_dim(weight),
            "ambient_dim": rep.ambient_dim,
            "eigenvalues": chart.mu,
            "spectral_gap": chart.gap,
            "chart_dim": chart.ncoords,
            "log_contraction": flow.log_contraction,
        }
        _emit_report(payload, cfg)
        return 0
    mu = ", ".join("%.12g" % m for m in chart.mu)
    lines = [
        f"module for n = {cfg.n}, J = {sorted(cfg.J)}: weight {list(weight.coeffs)}",
        f"dim = {rep.dim} (Weyl formula: {weyl_dim(weight)})",
        f"eigenvalues = [{mu}]",
        f"spectral gap = {chart.gap:.12g}",
        f"chart dimension = {chart.ncoords}, log contraction rate = {flow.log_contraction:.12g}",
    ]
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _load_start_point(cfg: RunConfig, path: str | None, chart) -> tuple:
    """``(p, g, origin)``: the start's chart point and, for a flag start, its binary64
    matrix g (None for a chart start), from a JSON file or a seeded random TNN flag.

    A malformed entry, or a start point that is not finite, raises ``ValueError``.
    """
    if path is None:
        rng = np.random.default_rng(cfg.seed)
        params = sample_params(standard_word_w0(cfg.n), rng)
        p = chart_coords(chart, line_of(chart.rep, params, "lower"))
        return p, sample_positive(params, "lower").to_float().entries, "random TNN flag"
    with open(path) as fh:
        doc = json.load(fh)
    try:
        if "chart" in doc:
            entries, origin = [float(x) for x in doc["chart"]], "chart point"
        elif "flag" in doc:
            entries, origin = [[float(x) for x in row] for row in doc["flag"]], "flag matrix"
        else:
            raise ValueError("point file needs a 'chart' or 'flag' entry")
    except TypeError as exc:
        raise ValueError(f"malformed point file ({exc})") from None
    p = np.array(entries)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{origin} entries must be finite")
    if origin == "chart point":
        return p, None, origin
    with np.errstate(all="ignore"):
        line = line_of(chart.rep, GroupElement(p, FLOAT))
        # an inf entry of the line would read as a point on the chart's equator
        point = chart_coords(chart, line) if np.all(np.isfinite(line)) else line
    if not np.all(np.isfinite(point)):
        raise ValueError("the flag matrix has no finite chart point in binary64")
    return point, p, origin


def cmd_flow(cfg: RunConfig, args) -> int:
    rep = build_rep(lambda_for(cfg.n, cfg.J))
    chart = eigenchart(rep)
    flow = DiagonalFlow.from_chart(chart)
    p, g, origin = _load_start_point(cfg, args.from_path, chart)
    if p.shape != (chart.ncoords,):
        raise ValueError(f"chart point has {p.shape[0]} coordinates, expected {chart.ncoords}")
    moved = flow_point(flow, cfg.t, p)
    if has_overflow(moved):
        raise ValueError(f"the flow to t = {cfg.t!r} overflows binary64 in the chart")
    payload = {
        "meta": cfg.meta("flow"),
        "origin": origin,
        "start": p,
        "flowed": moved,
        "norm_start": math.hypot(*p),
        "norm_flowed": math.hypot(*moved),
        "log_contraction": flow.log_contraction,
    }
    if cfg.n == 3 and not cfg.J:
        if g is None:
            payload["sl3"] = "no flag: the start is a chart point"
        else:
            frame = _frames_at(g, cfg.t)  # the flag of exp(t tau) g
            try:
                coords = sl3_coords(frame)
            except ValueError:  # v or w sums to zero
                payload["sl3"] = "outside the (v, w) chart"
            else:
                payload["sl3"] = {
                    "v": list(coords.v),
                    "w": list(coords.w),
                    "membership": sl3_membership(coords, tol=cfg.float_tol),
                }
    if args.crossing:
        radius, rule = cfg.radius, "explicit"
        if radius is None:
            radius = default_ball_radius(chart, np.random.default_rng([cfg.seed, 1]))
            rule = "1e-2 * smallest chart norm over 25 boundary samples"
        crossing = sphere_crossing(flow, p, radius, tol=cfg.bisect_tol)
        payload["crossing"] = {
            "radius": crossing.radius,
            "radius_rule": rule,
            "time": crossing.time,
            "point": crossing.point,
            "residual": crossing.residual,
        }
    _emit_report(payload, cfg)
    return 0


def _require_complete_sl3(cfg: RunConfig) -> None:
    if cfg.n != 3 or cfg.J:
        raise ValueError("the cell census is implemented for the complete SL(3) flag variety")


def cmd_cells(cfg: RunConfig, args) -> int:
    _require_complete_sl3(cfg)
    census = enumerate_cells()
    poset = face_poset(census)
    checks = validate_poset(poset)
    limits = limit_report(census, poset)
    payload = census_payload(census, poset, tol=cfg.vanish_tol)
    payload["poset_checks"] = checks
    payload["limits_pass"] = limits["passed"]
    verdict = census_verdict(census, checks)
    payload["bruhat_match"] = verdict["bruhat_match"]
    payload["vertex_labels_match"] = verdict["vertex_labels_match"]
    payload["meta"] = cfg.meta("cells")
    ok = all(verdict.values()) and payload["limits_pass"]
    f = census.f_vector
    summary = f"{len(census.cells)} cells: f = ({f[0]}, {f[1]}, {f[2]}, {f[3]})\n"
    if cfg.fmt == "json" and cfg.out is None:
        _emit(dumps_canonical(encode_tree(payload)), None)
    else:
        sys.stdout.write(summary)
        if cfg.out:
            _emit(dumps_canonical(encode_tree(payload)), cfg.out)
    return 0 if ok else 1


def cmd_fold(cfg: RunConfig, args) -> int:
    folding = build_folding(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    report = fixed_locus_flow_check(folding, rng, count=cfg.count)
    payload = {"meta": cfg.meta("fold"), **report}
    _emit_report(payload, cfg)
    return 0 if report["passed"] else 1


def cmd_figure(cfg: RunConfig, args) -> int:
    _require_complete_sl3(cfg)
    census = enumerate_cells()
    poset = face_poset(census)
    if cfg.fmt == "json":
        payload = census_payload(census, poset, tol=cfg.vanish_tol)
        payload["meta"] = cfg.meta("figure")
        _emit_report(payload, cfg)
    else:
        _emit(figure_svg(census, poset), cfg.out)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    counts, sections = run_suite(cfg.seed, cfg.count)
    passed = all(section["passed"] for section in sections.values())
    payload = {"meta": cfg.meta("verify") | {"counts": counts}, "sections": sections, "passed": passed}
    _emit_report(payload, cfg)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Command(NamedTuple):
    help: str
    run: object  # run(cfg, args) -> exit code
    settings: tuple  # the RunConfig fields the command reads
    formats: tuple = ()  # --format choices, for a command with more than one


_COMMANDS = {
    "pinning": _Command("print Chevalley generators and their sum", cmd_pinning,
                        ("n", "fmt", "out"), ("text", "json")),
    "sample": _Command("sample TP elements with minor certificates", cmd_sample,
                       ("n", "seed", "count", "out")),
    "embed": _Command("build a module and its eigenbasis chart", cmd_embed,
                      ("n", "J", "fmt", "out"), ("text", "json")),
    "flow": _Command("flow a chart point or flag", cmd_flow,
                     ("n", "J", "seed", "t", "radius", "float_tol", "bisect_tol", "out")),
    "verify": _Command("run the full property suite", cmd_verify, ("seed", "count", "out")),
    "cells": _Command("SL(3) cell census and face poset", cmd_cells,
                      ("n", "J", "vanish_tol", "fmt", "out"), ("text", "json")),
    "fold": _Command("diagram-flip fixed-locus flow check", cmd_fold, ("n", "seed", "count", "out")),
    "figure": _Command("schematic drawing of the SL(3) decomposition", cmd_figure,
                       ("n", "J", "vanish_tol", "fmt", "out"), ("svg", "json")),
}

# built-in defaults of one command, below the config file: the fold check
# needs n >= 4, and the figure is drawn as SVG
_DEFAULTS = {"fold": {"n": 4}, "figure": {"fmt": "svg"}}


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with one line on stderr and exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: each subcommand takes ``--config`` and the flag of
    each setting it reads.  Abbreviated flags are refused, so that a flag a
    command does not take is never read as a longer one it does (``cells --t``
    as ``--tol-vanish``).  It is built on the first call and the same parser
    is returned after that: ``parse_args`` keeps no state between calls."""
    return _parser()


# the cache sits on a private function so that build_parser stays a plain
# function, which perfbench/tracing.py wraps like every name in __all__
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tnnflow",
        description="totally nonnegative flag varieties: flows, charts, cells",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, command in _COMMANDS.items():
        sub[name] = subs.add_parser(name, help=command.help, allow_abbrev=False)
        sub[name].add_argument("--config", help="JSON config file (flags take precedence)")
        for key in command.settings:
            setting = _SETTINGS[key]
            sub[name].add_argument(
                setting.flag,
                type=setting.type,
                dest=key,
                help=setting.help,
                choices=command.formats if key == "fmt" else None,
            )
    sub["sample"].add_argument("--side", choices=("group", "upper", "lower"), default="group")
    sub["flow"].add_argument("--from", dest="from_path", help="JSON file with a 'chart' or 'flag' entry")
    sub["flow"].add_argument(
        "--crossing",
        action="store_true",
        help="locate the sphere crossing (--radius, or 1e-2 * smallest sampled boundary norm)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command].run(_resolve_config(args), args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
