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
figure    emit the schematic cell-decomposition drawing (SVG)

Each command takes, as flags and as config-file keys, only the settings it
reads (``_COMMANDS``), and echoes exactly those into the report's "meta"
block, ``out`` as null, so a report's bytes do not depend on where it is
written.  Precedence is flags > config file (--config, JSON) > the environment
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
from .chevalley import build_pinning, generator_sum
from .embedding import _chart_bytes, _float_lines, build_rep, chart_coords, eigenchart, lambda_for, line_of, weyl_dim
from .flow import DiagonalFlow, default_ball_radius, flag_frame, flow_point, has_overflow, sphere_crossing
from .folding import build_folding, fixed_locus_flow_check
from .serialize import dumps_canonical
from .suite import CASES, GATES, run_suite
from .totpos import (
    Positivity,
    _certificate,
    _scaled_product,
    sample_params,
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
        for name in ("t", "radius", "float_tol", "bisect_tol", "vanish_tol"):
            value = getattr(self, name)  # radius None picks the default radius
            if not (_is_real(value) and math.isfinite(value) or name == "radius" and value is None):
                raise ValueError(f"{name} must be a finite binary64 number, got {value!r}")
            if name != "t" and value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        bad = [j for j in self.J if not 1 <= j <= self.n - 1]
        if bad:
            raise ValueError(f"J indices {bad} out of range for n = {self.n}")
        if len(set(self.J)) != len(self.J):
            raise ValueError(f"J indices {sorted(self.J)} repeat")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def meta(self, command: str) -> dict:
        """The command name and the value of each setting the command reads, but for ``out``,
        which always reads null: where a report is written is no part of its bytes."""
        out = {"command": command}
        for name in _COMMANDS[command].settings:
            out[name] = sorted(self.J) if name == "J" else None if name == "out" else getattr(self, name)
        return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A float, or an int that binary64 holds: every real setting is used as a binary64 number."""
    return isinstance(x, float) or _is_int(x) and abs(x) <= sys.float_info.max


def _parse_J(text) -> tuple:
    try:
        return tuple(sorted(int(p) for p in str(text).split(",") if p.strip()))
    except ValueError:  # argparse names the flag before this message
        raise argparse.ArgumentTypeError(f"expected a comma list of ints, got {text!r}") from None


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
    defaults (``_DEFAULTS``) sit below the config file: the fold check
    defaults to n = 4.  A config-file key the command
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
            try:
                values["seed"] = int(env)
            except ValueError:
                raise ValueError(f"TNNFLOW_SEED must be an int, got {env!r}") from None
    return RunConfig(**values)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(payload: dict, cfg: RunConfig) -> None:
    _emit(dumps_canonical(payload), cfg.out)


def _int_matrix(a) -> list:
    return [[int(x) for x in row] for row in np.asarray(a)]


def _ratio_rows(columns: list, scales: list) -> list:
    """The exact matrix ``columns[c][r] / scales[c]`` as rows of ``"p/q"`` strings in lowest
    terms, the text ``frac`` gives each entry's ``Fraction``: one gcd per entry, no ``Fraction``."""
    return [[f"{x // g}/{e // g}" for x, e in zip(row, scales) for g in (math.gcd(x, e),)] for row in zip(*columns)]


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
            "matrix": _ratio_rows(*scaled),
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


def _refuse_past_memory(need: int, what: str) -> None:
    """Raise ``ValueError`` if ``need``, a floor on the bytes ``what`` takes, passes the
    machine's physical memory: callers decide it before anything is built or drawn."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        size = f"{need / 2**30:.3g} GiB" if need < 2**1000 else f"2^{need.bit_length() - 1} bytes"
        raise ValueError(f"{what} needs at least {size}, past the {have / 2**30:.3g} GiB of physical memory")


def _refuse_count_past_memory(count: int, n: int, samples: int) -> None:
    """Refuse a ``--count`` whose fold gate, of ``samples`` samples at n, cannot fit in
    physical memory: the gate holds one binary64 n x n QR frame per sample and one for
    its control at once, ``8 n^2 (samples + 1)`` bytes, before it flows them."""
    _refuse_past_memory(8 * n * n * (samples + 1), f"--count {count} is too big: the fold gate")


def _module_chart(cfg: RunConfig) -> tuple:
    """``(weight, rep, chart)`` of the (n, J) module.  Before anything is built, a module
    whose chart's dense arrays (:func:`~tnnflow.embedding._chart_bytes`) cannot fit in
    the machine's physical memory is refused with ``ValueError``."""
    weight = lambda_for(cfg.n, cfg.J)
    _refuse_past_memory(_chart_bytes(weight), f"the module for n = {cfg.n}, J = {sorted(cfg.J)} is too big "
                                              "for a dense chart: it")
    rep = build_rep(weight)
    return weight, rep, eigenchart(rep)


def cmd_embed(cfg: RunConfig, args) -> int:
    weight, rep, chart = _module_chart(cfg)
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

    A random flag's point is the exact line of its parameters (``line_of``), and
    only its binary64 matrix is multiplied out.  A flag matrix from a file has
    each column scaled by a power of two, so that its largest |entry| lies in
    [1/2, 1): the flag is the same, and its minors neither overflow nor
    underflow on account of a column's scale.  An entry that breaks the config
    file's rule for a real (:func:`_is_real`: a string, a bool, null, or an int
    past binary64) raises ``ValueError`` naming the file's key, and so do a flag
    matrix that is not n x n and a start that is not finite.
    """
    if path is None:
        params = sample_params(standard_word_w0(cfg.n), np.random.default_rng(cfg.seed))
        p = chart_coords(chart, line_of(chart.rep, params, "lower"))
        return p, linalg._float_of_scaled(*_scaled_product(params, "lower")), "random TNN flag"
    with open(path) as fh:
        doc = json.load(fh)
    key = next((k for k in ("chart", "flag") if isinstance(doc, dict) and k in doc), None)
    if key is None:
        raise ValueError("point file needs a 'chart' or 'flag' entry")
    origin, want = ("chart point", "a list") if key == "chart" else ("flag matrix", "a list of equally long rows")
    rows = [doc[key]] if key == "chart" else doc[key]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows) and len(set(map(len, rows))) < 2):
        raise ValueError(f"point file key {key!r} must be {want} of finite numbers, got {doc[key]!r}")
    bad = [x for row in rows for x in row if not _is_real(x)]
    if bad:
        raise ValueError(f"point file key {key!r} must be {want} of finite numbers, got the entry {bad[0]!r}")
    p = np.array([[float(x) for x in row] for row in rows])
    if key == "chart":
        p = p[0]
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{origin} entries must be finite")
    if origin == "chart point":
        return p, None, origin
    if p.shape != (cfg.n, cfg.n):
        raise ValueError(f"the flag matrix is {' x '.join(map(str, p.shape))}, expected {cfg.n} x {cfg.n}")
    p = np.ldexp(p, -np.frexp(np.abs(p).max(axis=0))[1])
    with np.errstate(all="ignore"):
        line = _float_lines(chart.rep, p[None])[0]
        # an inf entry of the line would read as a point on the chart's equator
        point = chart_coords(chart, line) if np.all(np.isfinite(line)) else line
    if not np.all(np.isfinite(point)):
        raise ValueError("the flag matrix has no finite chart point in binary64")
    return point, p, origin


def cmd_flow(cfg: RunConfig, args) -> int:
    _, rep, chart = _module_chart(cfg)
    flow = DiagonalFlow.from_chart(chart)
    p, g, origin = _load_start_point(cfg, args.from_path, chart)
    if p.shape != (chart.ncoords,):
        raise ValueError(f"chart point has {p.shape[0]} coordinates, expected {chart.ncoords}")
    moved = flow_point(flow, cfg.t, p)
    if has_overflow(moved):
        raise ValueError(f"the flow to t = {cfg.t!r} overflows binary64 in the chart")
    # finite coordinates can still have a norm past binary64
    norm_start, norm_flowed = math.hypot(*p), math.hypot(*moved)
    if not math.isfinite(norm_start):
        raise ValueError("the chart norm of the start overflows binary64")
    if not math.isfinite(norm_flowed):
        raise ValueError(f"the chart norm of the flow to t = {cfg.t!r} overflows binary64")
    payload = {
        "meta": cfg.meta("flow"),
        "origin": origin,
        "start": p,
        "flowed": moved,
        "norm_start": norm_start,
        "norm_flowed": norm_flowed,
        "log_contraction": flow.log_contraction,
    }
    if cfg.n == 3 and not cfg.J:
        if g is None:
            payload["sl3"] = "no flag: the start is a chart point"
        else:
            frame = flag_frame(g, cfg.t)  # the flag of exp(t tau) g
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
    try:  # the payload's only refusal, of the fixed point's label, comes from --tol-vanish
        payload = census_payload(census, poset, tol=cfg.vanish_tol)
    except ValueError as exc:
        raise ValueError(f"--tol-vanish {cfg.vanish_tol!r} puts the fixed point in no cell: {exc}") from None
    payload["poset_checks"] = checks
    payload["limits_pass"] = limits["passed"]
    verdict = census_verdict(census, checks, payload["bruhat_counts"])
    payload["bruhat_match"] = verdict["bruhat_match"]
    payload["vertex_labels_match"] = verdict["vertex_labels_match"]
    payload["meta"] = cfg.meta("cells")
    ok = all(verdict.values()) and payload["limits_pass"]
    f = census.f_vector
    summary = f"{len(census.cells)} cells: f = ({f[0]}, {f[1]}, {f[2]}, {f[3]})\n"
    if cfg.fmt == "json" and cfg.out is None:
        _emit(dumps_canonical(payload), None)
    else:
        sys.stdout.write(summary)
        if cfg.out:
            _emit(dumps_canonical(payload), cfg.out)
    return 0 if ok else 1


def cmd_fold(cfg: RunConfig, args) -> int:
    _refuse_count_past_memory(cfg.count, cfg.n, cfg.count)
    folding = build_folding(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    report = fixed_locus_flow_check(folding, rng, count=cfg.count)
    payload = {"meta": cfg.meta("fold"), **report}
    _emit_report(payload, cfg)
    return 0 if report["passed"] else 1


def cmd_figure(cfg: RunConfig, args) -> int:
    _require_complete_sl3(cfg)
    census = enumerate_cells()
    _emit(figure_svg(census, face_poset(census)), cfg.out)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    fold_n = next(row.n for row in CASES if row.gate == "folding")
    _refuse_count_past_memory(cfg.count, fold_n, GATES["folding"].count(cfg.count))
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
    "figure": _Command("schematic drawing of the SL(3) decomposition", cmd_figure, ("n", "J", "out")),
}

# built-in defaults of one command, below the config file: the fold check needs n >= 4
_DEFAULTS = {"fold": {"n": 4}}


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
