"""Spans around the public functions of each ``tnnflow`` layer, and the
per-layer metrics computed from them.

The program is not changed: :func:`instrument` replaces every function named
in a layer's ``__all__`` by a timing wrapper, wherever that function is bound
in a ``tnnflow.*`` namespace.  That covers calls between layers, calls inside
a layer through its own module globals, and the from-imports of ``cli``.
Generator functions (``linalg.all_minors``) are left alone: their work runs
while the caller iterates, so it is charged to the caller's span.

Spans are kept in memory as ``[name, start, end, parent, tag]`` and written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from workloads import RUNG_NAMES, rung_of

LAYERS = ("linalg", "chevalley", "totpos", "embedding", "flow", "cells", "folding", "serialize", "cli")


def _fraction_bits(entries) -> int:
    return max(
        (x.numerator.bit_length() + x.denominator.bit_length() for x in entries.flat if isinstance(x, Fraction)),
        default=0,
    )


def _tag_is_tnn(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    entries = getattr(g, "entries", g)
    return (entries.shape[0], _fraction_bits(entries))


def _tag_build_rep(args, kwargs, result):
    return (rung_of(result), result.dim, result.ambient_dim)


def _tag_line_of(args, kwargs, result):
    from tnnflow.totpos import FactorizationParams

    rep = args[0] if args else kwargs["rep"]
    g = args[1] if len(args) > 1 else kwargs["g"]
    return ("exact" if isinstance(g, FactorizationParams) else "float", rung_of(rep))


def _tag_dumps(args, kwargs, result):
    return len(result.encode())


TAGGERS = {
    "totpos.is_tnn_matrix": _tag_is_tnn,
    "embedding.build_rep": _tag_build_rep,
    "embedding.line_of": _tag_line_of,
    "serialize.dumps_canonical": _tag_dumps,
}


class Tracer:
    """Records one span per call of a wrapped function, with its parent."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, tagger = self.spans, self._stack, TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tagger is not None:
                span[4] = tagger(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, tag]) + "\n")


def instrument(tracer: Tracer) -> int:
    """Wrap each layer's public functions in every ``tnnflow`` namespace."""
    modules = [m for key, m in sys.modules.items() if key == "tnnflow" or key.startswith("tnnflow.")]
    wrapped = 0
    for layer in LAYERS:
        module = sys.modules[f"tnnflow.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            wrapped += 1
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
    return wrapped


# ---------------------------------------------------------------------------
# per-layer metrics

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "linalg.det.calls": "count",
    "linalg.det.self_s": "s",
    "linalg.minor.calls": "count",
    "chevalley.one_param.calls": "count",
    "chevalley.one_param.self_s": "s",
    "chevalley.exp_generator_sum.self_s": "s",
    "totpos.sample_positive.calls": "count",
    "totpos.sample_positive.self_s": "s",
    "totpos.is_tnn_matrix.calls": "count",
    "totpos.is_tnn_matrix.self_s": "s",
    **{f"totpos.is_tnn_matrix.p50_ms.n{n}": "ms" for n in (3, 4, 5, 6)},
    "totpos.minors_per_verdict": "count",
    "totpos.max_fraction_bits": "bit",
    "totpos.flag_of.self_s": "s",
    "embedding.build_rep.calls": "count",
    "embedding.build_rep.self_s": "s",
    **{f"embedding.build_rep.s.{r}": "s" for r in RUNG_NAMES},
    **{f"embedding.dim.{r}": "count" for r in RUNG_NAMES},
    **{f"embedding.ambient_dim.{r}": "count" for r in RUNG_NAMES},
    "embedding.eigenchart.self_s": "s",
    "embedding.line_of.exact.calls": "count",
    "embedding.line_of.exact.self_s": "s",
    **{f"embedding.line_of.exact.p50_ms.{r}": "ms" for r in RUNG_NAMES},
    "embedding.line_of.float.calls": "count",
    "embedding.line_of.float.self_s": "s",
    "embedding.compound_matrix.self_s": "s",
    "embedding.chart_coords.calls": "count",
    "flow.flow_point.calls": "count",
    "flow.converge.iters": "count",
    "flow.sphere_crossing.iters": "count",
    "flow.commutation_check.self_s": "s",
    "flow.invariance_check.self_s": "s",
    "flow.verify_axioms.self_s": "s",
    "cells.enumerate_cells.self_s": "s",
    "cells.face_poset.self_s": "s",
    "folding.fixed_locus_flow_check.self_s": "s",
    "folding.apply_group.self_s": "s",
    "serialize.dumps_canonical.self_s": "s",
    "serialize.report_bytes": "byte",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}

# Counters that must repeat exactly for a fixed seed.
EXACT_UNITS = ("count", "bit", "byte")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list, pass_wall: float, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric, from the spans of one traced pass.

    ``pass_wall`` is that pass's wall time; ``traced_wall`` and
    ``untraced_wall`` are the best wall times of the pass with and without
    tracing.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)  # time under each span's children
    root_s = 0.0
    for k, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[k]
        else:
            root_s += duration[k]

    def select(name: str, keep=lambda tag: True) -> list:
        return [k for k, span in enumerate(spans) if span[0] == name and keep(span[4])]

    def of(key: str) -> list:
        """Spans a metric prefix names; ``embedding.line_of.<path>`` splits by path."""
        if key.startswith("embedding.line_of."):
            path = key.split(".")[2]
            return select("embedding.line_of", lambda tag: tag[0] == path)
        return select(key)

    def children(name: str, child: str) -> int:
        return sum(1 for span in spans if span[0] == child and span[3] >= 0 and spans[span[3]][0] == name)

    out = {}
    for key in PER_LAYER:
        prefix, stat = key.rsplit(".", 1)
        if stat == "calls":
            out[key] = len(of(prefix))
        elif stat == "self_s" and not key.startswith("trace."):
            out[key] = sum((duration[k] - covered[k] for k in of(prefix)), 0.0)

    tnn = [(spans[k][4], duration[k]) for k in select("totpos.is_tnn_matrix")]
    for n in (3, 4, 5, 6):
        out[f"totpos.is_tnn_matrix.p50_ms.n{n}"] = 1e3 * _median([d for (size, _), d in tnn if size == n])
    minors = children("totpos.is_tnn_matrix", "linalg.minor")
    out["totpos.minors_per_verdict"] = minors / len(tnn) if tnn else 0
    out["totpos.max_fraction_bits"] = max((bits for (_, bits), _ in tnn), default=0)

    for r in RUNG_NAMES:
        built = select("embedding.build_rep", lambda tag: tag[0] == r)
        exact = select("embedding.line_of", lambda tag: tag == ("exact", r))
        out[f"embedding.build_rep.s.{r}"] = _median([duration[k] for k in built])
        out[f"embedding.dim.{r}"] = spans[built[0]][4][1] if built else 0
        out[f"embedding.ambient_dim.{r}"] = spans[built[0]][4][2] if built else 0
        out[f"embedding.line_of.exact.p50_ms.{r}"] = 1e3 * _median([duration[k] for k in exact])

    for name in ("flow.converge", "flow.sphere_crossing"):
        calls = len(select(name))
        out[f"{name}.iters"] = children(name, "flow.flow_point") / calls if calls else 0
    out["serialize.report_bytes"] = sum(spans[k][4] for k in select("serialize.dumps_canonical"))
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.span_coverage"] = root_s / pass_wall
    return {key: out[key] for key in PER_LAYER}
