"""The tnnflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {verify,ladder,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; ``tnnflow`` is imported from ``src/`` next to
this directory, and nothing else.  The workloads are described in
``workloads.py``.  BLAS threads are pinned to 1 in this process's environment
before numpy loads, so a run is one process and one thread.

``--trace 0`` runs operations closed-loop for ``--seconds`` (at least one full
pass) and reports the end-to-end metrics:

* ``setup_s``     median, over fresh interpreters, of importing tnnflow and
                  generating the inputs (``setup_probe.py``);
* ``op_s``        wall time of one operation, as the sum of the best times of
                  its steps (see ``summarize``): a ``verify`` command
                  (``verify_s``), a whole ladder (``ladder_s``), or a certify
                  round;
* ``peak_rss_mb`` peak resident set size of this process.

``--trace 1`` runs one fixed pass (a ``verify`` command, a ladder, a certify
round) untraced, then with every layer instrumented (``tracing.py``), and
reports the per-layer metrics; their counters repeat exactly for a fixed seed.

Every operation is gated for correctness.  A failed gate or an exception is
counted in ``failed``, never raised.  The last line of standard output is the
result; the line before it holds the run context and the fuller report
(``fail_ratio``, ``verify_s``, ``ladder_s``, ``certs_per_s.n4``/``.n6``,
sample counts), which is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 16

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", required=True, type=_nonnegative_int)
    parser.add_argument("--seconds", required=True, type=_positive_float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", choices=("full", "min"), default="full",
        help="'min' shrinks every workload to its smallest case (smoke test)",
    )
    return parser.parse_args(argv)


def setup_probe(args) -> float:
    """Set-up time of one fresh interpreter, from spawn to ready."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    argv = [sys.executable, str(probe), "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--out-dir", str(OUT_DIR)]
    spawned = time.time()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - spawned


def timed_loop(tnnflow, args, inputs, tally):
    """Closed loop for ``--seconds``, never less than one full pass.

    The set-up probes run between operations, spread evenly over the run and
    left out of its clock: the machine's speed drifts over seconds, and
    probes taken all at once would sample a single moment of it.
    """
    samples, state, setup = workloads.Samples(), {}, []
    passes = workloads.op_count(args.workload, inputs)
    probe_every = args.seconds / SETUP_PROBES
    start = time.perf_counter()
    paused = 0.0
    k = 0
    while k < passes or time.perf_counter() - start - paused < args.seconds:
        if len(setup) < SETUP_PROBES and time.perf_counter() - start - paused >= len(setup) * probe_every:
            t0 = time.perf_counter()
            setup.append(setup_probe(args))
            paused += time.perf_counter() - t0
        workloads.run_op(tnnflow, args.workload, inputs, k, samples, tally, state)
        k += 1
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))
    return samples, setup


def traced_pass(tnnflow, args, inputs, tally):
    """The fixed pass untraced, then traced; per-layer metrics of the last pass.

    Each side runs twice and keeps its faster wall time, so that
    ``trace.overhead_s`` is not just the machine's drift between two passes.
    """
    passes = workloads.op_count(args.workload, inputs)
    state = {}

    def one_pass():
        samples = workloads.Samples()
        start = time.perf_counter()
        for k in range(passes):
            workloads.run_op(tnnflow, args.workload, inputs, k, samples, tally, state)
        return time.perf_counter() - start

    untraced = min(one_pass() for _ in range(2))
    tracer = tracing.Tracer()
    wrapped = tracing.instrument(tracer)
    traced = []
    for _ in range(2):
        tracer.spans.clear()
        traced.append(one_pass())
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracing.layer_metrics(tracer.spans, traced[-1], min(traced), untraced)
    extra = {"functions_wrapped": wrapped, "spans": len(tracer.spans),
             "untraced_wall_s": untraced, "traced_wall_s": min(traced)}
    return {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in metrics.items()}, extra


def summarize(workload: str, samples) -> tuple:
    """``op_s`` and the workload's own named metrics, from the timed steps.

    A step's cost is its fastest repetition.  On a shared machine the noise
    comes from outside the process and only ever adds time (on a shared
    2-vCPU Xeon VM, identical work drifted by 20-50% over seconds to
    minutes, in CPU time as in wall time), so the minimum of many
    repetitions is far steadier than their median, which is kept in the
    report beside it.  An operation's cost is the sum over its steps.
    """
    best = {step: min(v) for step, v in samples.items()}
    op_s = sum(best.values())
    named = {}
    if workload == "verify":
        named["verify_s"] = op_s
    elif workload == "ladder":
        named["ladder_s"] = op_s
    else:
        for n in (4, 6):
            at_n = [t for step, t in best.items() if step.startswith(f"n{n}.")]
            if at_n:
                named[f"certs_per_s.n{n}"] = len(at_n) / sum(at_n)
    detail = {
        step: {
            "n": len(v),
            "min_s": best[step],
            "median_s": statistics.median(v),
            "quartiles_s": statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3,
        }
        for step, v in samples.items()
    }
    return op_s, named, detail


def run_context(args) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loop": "closed, one process, one thread",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        tnnflow = workloads.import_tnnflow(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tally = workloads.Tally()
    report = {"context": run_context(args)}

    inputs = workloads.make_inputs(tnnflow, args.workload, args.seed, args.size, OUT_DIR)
    if args.trace:
        metrics, report["trace"] = traced_pass(tnnflow, args, inputs, tally)
    else:
        samples, setup = timed_loop(tnnflow, args, inputs, tally)
        op_s, named, detail = summarize(args.workload, samples)
        values = {
            "setup_s": statistics.median(setup),
            "op_s": op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        report["named"] = named
        report["timed"] = {"setup_samples_s": setup, "steps": detail}

    report["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    if tally.first_error:
        print(f"first failure: {tally.first_error}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    report["result"] = result
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: report[k] for k in report if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
