"""Command-line surface: pinnings, sampling, embeddings, flows, and reports.

Subcommands
-----------
pinning   print the Chevalley generator matrices and their sum
sample    draw factorized totally positive elements with minor certificates
embed     build a highest-weight module and its eigenbasis chart
flow      flow a chart point / flag, optionally locating a sphere crossing
verify    run the full property suite; exit nonzero on any failure
cells     SL(3) cell census + face poset (summary line and JSON document)
fold      check the diagram-flip fixed locus is preserved by the flow
figure    emit the schematic cell-decomposition drawing (SVG or JSON)

Configuration precedence is flags > config file (--config, JSON) > the
environment variable TNNFLOW_SEED (seed only) > built-in defaults, and every
effective value is echoed into the report's "meta" block.  All JSON output
goes through the canonical encoder, so identical configuration produces
byte-identical bytes -- there are no timestamps and no machine identifiers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .cells import (
    bruhat_interval_counts,
    census_payload,
    census_verdict,
    enumerate_cells,
    face_poset,
    figure_svg,
    limit_report,
    validate_poset,
)
from .chevalley import FLOAT, GroupElement, build_pinning, exp_generator_sum, generator_sum
from .embedding import (
    build_rep,
    chart_coords,
    chart_line,
    eigenchart,
    lambda_for,
    line_of,
    weyl_dim,
)
from .flow import (
    DiagonalFlow,
    commutation_check,
    converge,
    default_ball_radius,
    default_invariance_cases,
    flow_point,
    has_overflow,
    invariance_check,
    line_to_sl3_coords,
    sphere_crossing,
    verify_axioms,
)
from .folding import build_folding, fixed_locus_flow_check
from .serialize import dumps_canonical, encode_tree
from .totpos import (
    Positivity,
    certify_minors,
    is_tnn_matrix,
    sample_params,
    sample_positive,
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
            if not getattr(self, name) > 0:  # NaN fails this too
                raise ValueError(f"{name} must be positive")
        bad = [j for j in self.J if not 1 <= j <= self.n - 1]
        if bad:
            raise ValueError(f"J indices {bad} out of range for n = {self.n}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.radius is not None and not self.radius > 0:
            raise ValueError("radius must be positive")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")

    def meta(self, command: str) -> dict:
        out = {"command": command}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        out["J"] = sorted(self.J)
        return out


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _parse_J(text) -> tuple:
    if text is None:
        return None
    items = [part.strip() for part in str(text).split(",")]
    return tuple(sorted(int(p) for p in items if p))


def _resolve_config(args, overrides: dict | None = None) -> RunConfig:
    """Merge flags over config file over env/default into a RunConfig.

    ``overrides`` replaces built-in defaults for one command (lowest
    precedence), e.g. the fold check defaulting to n = 4.
    """
    values = dict(overrides or {})
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = sorted(set(file_cfg) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        if "J" in file_cfg:
            file_cfg["J"] = tuple(int(j) for j in file_cfg["J"])
        values.update(file_cfg)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "seed" not in values:
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


def cmd_pinning(cfg: RunConfig) -> int:
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


def cmd_sample(cfg: RunConfig, side: str) -> int:
    rng = np.random.default_rng(cfg.seed)
    word = standard_word_w0(cfg.n)
    records = []
    all_certified = True
    for k in range(cfg.count):
        params = sample_params(word, rng, group=(side == "group"))
        g = sample_positive(params, side)
        verdict, least = certify_minors(g)
        record = {
            "index": k,
            "side": side,
            "word": list(word.letters),
            "params": list(params.t),
            "matrix": g.entries,
            "positivity": verdict,
            "min_minor": least,
        }
        if params.torus is not None:
            record["torus"] = list(params.torus)
        want = Positivity.TOTALLY_POSITIVE if side == "group" else Positivity.TOTALLY_NONNEGATIVE
        record["certified"] = verdict is want
        all_certified = all_certified and record["certified"]
        records.append(record)
    payload = {"meta": cfg.meta("sample"), "samples": records, "all_certified": all_certified}
    _emit_report(payload, cfg)
    return 0 if all_certified else 1


def cmd_embed(cfg: RunConfig) -> int:
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
    """Starting chart point from a JSON file, or a seeded random TNN flag."""
    if path is None:
        rng = np.random.default_rng(cfg.seed)
        params = sample_params(standard_word_w0(cfg.n), rng)
        p = chart_coords(chart, line_of(chart.rep, params, "lower"))
        return p, "random TNN flag"
    with open(path) as fh:
        doc = json.load(fh)
    if "chart" in doc:
        p = np.array([float(x) for x in doc["chart"]])
        if not np.all(np.isfinite(p)):
            raise ValueError("chart point entries must be finite")
        return p, "chart point"
    if "flag" in doc:
        mat = np.array([[float(x) for x in row] for row in doc["flag"]])
        if not np.all(np.isfinite(mat)):
            raise ValueError("flag matrix entries must be finite")
        g = GroupElement(mat, FLOAT)
        return chart_coords(chart, line_of(chart.rep, g)), "flag matrix"
    raise ValueError("point file needs a 'chart' or 'flag' entry")


def cmd_flow(cfg: RunConfig, from_path: str | None, want_crossing: bool) -> int:
    rep = build_rep(lambda_for(cfg.n, cfg.J))
    chart = eigenchart(rep)
    flow = DiagonalFlow.from_chart(chart)
    p, origin = _load_start_point(cfg, from_path, chart)
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
        "norm_start": float(np.linalg.norm(p)),
        "norm_flowed": float(np.linalg.norm(moved)),
        "log_contraction": flow.log_contraction,
    }
    if cfg.n == 3 and not cfg.J:
        # coordinate readout only exists on decomposable lines (flag images)
        try:
            coords = line_to_sl3_coords(chart, chart_line(chart, moved))
        except ValueError:
            payload["sl3"] = "not a flag image"
        else:
            payload["sl3"] = {
                "v": list(coords.v),
                "w": list(coords.w),
                "membership": sl3_membership(coords, tol=cfg.float_tol),
            }
    if want_crossing:
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


def cmd_cells(cfg: RunConfig) -> int:
    if cfg.n != 3:
        raise ValueError("the cell census is implemented for the complete SL(3) flag variety")
    census = enumerate_cells(seed=cfg.seed)
    poset = face_poset(census)
    checks = validate_poset(poset)
    limits = limit_report(census, poset)
    payload = census_payload(census, poset, seed=cfg.seed, tol=cfg.vanish_tol)
    payload["poset_checks"] = checks
    payload["limits_pass"] = limits["passed"]
    verdict = census_verdict(census, checks)
    payload["bruhat_match"] = verdict["bruhat_match"]
    payload["vertex_labels_match"] = verdict["vertex_labels_match"]
    payload["meta"] = {**payload["meta"], **cfg.meta("cells")}
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


def cmd_fold(cfg: RunConfig) -> int:
    folding = build_folding(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    report = fixed_locus_flow_check(folding, rng, count=cfg.count)
    payload = {"meta": cfg.meta("fold"), **report}
    _emit_report(payload, cfg)
    return 0 if report["passed"] else 1


def cmd_figure(cfg: RunConfig) -> int:
    census = enumerate_cells(seed=cfg.seed)
    poset = face_poset(census)
    if cfg.fmt == "json":
        payload = census_payload(census, poset, seed=cfg.seed, tol=cfg.vanish_tol)
        payload["meta"] = {**payload["meta"], **cfg.meta("figure")}
        _emit_report(payload, cfg)
    else:
        _emit(figure_svg(census, poset), cfg.out)
    return 0


# ---------------------------------------------------------------------------
# the verification suite


def _verify_axioms_section(rng, counts) -> dict:
    rep = build_rep(lambda_for(3, ()))
    chart = eigenchart(rep)
    flow = DiagonalFlow.from_chart(chart)
    report = verify_axioms(flow, rng, samples=counts["axioms"])
    return {
        "samples": counts["axioms"],
        "log_contraction": flow.log_contraction,
        "checks": [
            {"name": c.name, "passed": c.passed, "worst": c.worst, "samples": c.samples}
            for c in report.checks
        ],
        "passed": report.passed,
    }


def _verify_commutation_section(rng, counts) -> dict:
    cases = []
    passed = True
    for case in default_invariance_cases():
        pin = build_pinning(case.n)
        rep = build_rep(lambda_for(case.n, case.J))
        chart = eigenchart(rep)
        word = standard_word_w0(case.n)
        for t in (0.1, 1.0):
            worst = 0.0
            for _ in range(counts["commutation"]):
                params = sample_params(word, rng)
                result = commutation_check(pin, chart, params, t)
                worst = max(worst, result["max_diff"])
            ok = worst <= 1e-8
            passed = passed and ok
            cases.append(
                {
                    "n": case.n,
                    "J": sorted(case.J),
                    "t": t,
                    "samples": counts["commutation"],
                    "worst": worst,
                    "passed": ok,
                }
            )
    return {"cases": cases, "tolerance": 1e-8, "passed": passed}


def _verify_invariance_section(rng, counts) -> dict:
    cases = []
    passed = True
    for case in default_invariance_cases():
        rep = build_rep(lambda_for(case.n, case.J))
        chart = eigenchart(rep) if (case.n, tuple(sorted(case.J))) == (3, ()) else None
        result = invariance_check(case, rep, chart, 0.1, rng, count=counts["invariance"])
        passed = passed and result["passed"]
        cases.append(
            {
                "n": case.n,
                "J": sorted(case.J),
                "all_interior": result["all_interior"],
                "count": result["count"],
                "worst_margin": result["worst_margin"],
                "control_interior": result["control_interior"],
                "passed": result["passed"],
            }
        )
    return {"cases": cases, "t": 0.1, "passed": passed}


def _verify_folding_section(rng, counts) -> dict:
    folding = build_folding(4)
    report = fixed_locus_flow_check(folding, rng, count=counts["folding"])
    return {k: v for k, v in report.items() if k != "witness"} | {
        "witness": report["witness"] or "none"
    }


def _verify_census_section() -> dict:
    census = enumerate_cells(seed=0)
    poset = face_poset(census)
    checks = validate_poset(poset)
    return {
        "cell_count": len(census.cells),
        "f_vector": list(census.f_vector),
        "bruhat_counts": list(bruhat_interval_counts(3)),
        "euler_boundary": census.euler(max_dim=2),
        "vertex_labels": sorted(census.vertex_labels()),
        "poset_checks": checks,
        "passed": all(census_verdict(census, checks).values()),
    }


def _verify_exp_tp_section() -> dict:
    pin = build_pinning(3)
    g = exp_generator_sum(pin, 1.0)
    rational = linalg.rationalize(g.entries)
    verdict = is_tnn_matrix(rational)
    return {
        "t": 1.0,
        "verdict": verdict,
        "passed": verdict is Positivity.TOTALLY_POSITIVE,
    }


def _verify_fixed_point_section(rng, counts) -> dict:
    pin = build_pinning(3)
    rep = build_rep(lambda_for(3, ()))
    chart = eigenchart(rep)
    flow = DiagonalFlow.from_chart(chart)
    target = np.array([1.0, math.sqrt(2.0), 1.0, 1.0, math.sqrt(2.0), 1.0])
    target /= 2.0 + math.sqrt(2.0)
    word = standard_word_w0(3)
    worst = 0.0
    bounded = True
    for _ in range(counts["fixed_point"]):
        params = sample_params(word, rng)
        p = chart_coords(chart, line_of(rep, params, "lower"))
        run = converge(flow, p, tol=1e-9)
        bounded = bounded and run.within_bound
        moved = flow_point(flow, run.time, p)
        coords = line_to_sl3_coords(chart, chart_line(chart, moved))
        got = np.array(list(coords.v) + list(coords.w))
        worst = max(worst, float(np.max(np.abs(got - target))))
    ok = bounded and worst <= 1e-8
    return {
        "starts": counts["fixed_point"],
        "worst_coordinate_error": worst,
        "within_a_priori_bound": bounded,
        "tolerance": 1e-8,
        "passed": ok,
    }


def _verify_dims_section() -> dict:
    entries = []
    ok = True
    for n, J in ((3, ()), (4, (1, 3))):
        weight = lambda_for(n, J)
        rep = build_rep(weight)
        chart = eigenchart(rep)
        match = rep.dim == weyl_dim(weight)
        gap_ok = chart.mu[0] > chart.mu[1]
        ok = ok and match and gap_ok
        entries.append(
            {
                "n": n,
                "J": list(J),
                "dim": rep.dim,
                "weyl_dim": weyl_dim(weight),
                "mu0": chart.mu[0],
                "mu1": chart.mu[1],
                "passed": match and gap_ok,
            }
        )
    return {"modules": entries, "passed": ok}


def cmd_verify(cfg: RunConfig) -> int:
    counts = {
        "axioms": max(cfg.count, 100),
        "commutation": max(cfg.count // 5, 10),
        "invariance": max(cfg.count // 3, 20),
        "folding": max(cfg.count // 3, 20),
        "fixed_point": 5,
    }
    rng = np.random.default_rng(cfg.seed)
    sections = {
        "axioms": _verify_axioms_section(rng, counts),
        "commutation": _verify_commutation_section(rng, counts),
        "invariance": _verify_invariance_section(rng, counts),
        "folding": _verify_folding_section(rng, counts),
        "census": _verify_census_section(),
        "exp_total_positivity": _verify_exp_tp_section(),
        "fixed_point": _verify_fixed_point_section(rng, counts),
        "representation_dims": _verify_dims_section(),
    }
    passed = all(section["passed"] for section in sections.values())
    payload = {
        "meta": cfg.meta("verify") | {"counts": counts},
        "sections": sections,
        "passed": passed,
    }
    _emit_report(payload, cfg)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub, *, fmt_choices=("text", "json"), default_fmt=None):
    sub.add_argument("--config", help="JSON config file (flags take precedence)")
    sub.add_argument("--n", type=int, dest="n")
    sub.add_argument("--J", type=_parse_J, dest="J", help='comma list, e.g. "2" or "1,3"; "" = complete')
    sub.add_argument("--seed", type=int, dest="seed")
    sub.add_argument("--count", type=int, dest="count")
    sub.add_argument("--t", type=float, dest="t")
    sub.add_argument("--radius", type=float, dest="radius")
    sub.add_argument("--tol-float", type=float, dest="float_tol")
    sub.add_argument("--tol-bisect", type=float, dest="bisect_tol")
    sub.add_argument("--tol-vanish", type=float, dest="vanish_tol")
    sub.add_argument("--format", choices=fmt_choices, dest="fmt", default=default_fmt)
    sub.add_argument("--out", dest="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnnflow",
        description="totally nonnegative flag varieties: flows, charts, cells",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("pinning", help="print Chevalley generators and their sum"))
    sample = subs.add_parser("sample", help="sample TP elements with minor certificates")
    _add_common(sample, fmt_choices=("json",), default_fmt="json")
    sample.add_argument("--positive", action="store_true", help="full G_{>0} samples (default)")
    sample.add_argument("--side", choices=("group", "upper", "lower"), default="group")

    _add_common(subs.add_parser("embed", help="build a module and its eigenbasis chart"))
    flow = subs.add_parser("flow", help="flow a chart point or flag")
    _add_common(flow, fmt_choices=("json",), default_fmt="json")
    flow.add_argument("--from", dest="from_path", help="JSON file with a 'chart' or 'flag' entry")
    flow.add_argument(
        "--crossing",
        action="store_true",
        help="locate the sphere crossing (--radius, or 1e-2 * smallest sampled boundary norm)",
    )

    verify = subs.add_parser("verify", help="run the full property suite")
    _add_common(verify, fmt_choices=("json",), default_fmt="json")

    _add_common(subs.add_parser("cells", help="SL(3) cell census and face poset"))
    fold = subs.add_parser("fold", help="diagram-flip fixed-locus flow check")
    _add_common(fold, fmt_choices=("json",), default_fmt="json")

    figure = subs.add_parser("figure", help="schematic drawing of the SL(3) decomposition")
    _add_common(figure, fmt_choices=("svg", "json"), default_fmt="svg")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {"n": 4} if args.command == "fold" else None
        cfg = _resolve_config(args, overrides)
        if args.command == "pinning":
            return cmd_pinning(cfg)
        if args.command == "sample":
            side = "group" if args.positive else args.side
            return cmd_sample(cfg, side)
        if args.command == "embed":
            return cmd_embed(cfg)
        if args.command == "flow":
            return cmd_flow(cfg, args.from_path, args.crossing)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "cells":
            return cmd_cells(cfg)
        if args.command == "fold":
            return cmd_fold(cfg)
        if args.command == "figure":
            return cmd_figure(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
