#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json once, the tier-1 tests and the CLI wall-time
rows, and keep the results in one JSON file.

Usage: python scripts/bench_snapshot.py --out BENCH_<name>.json

For each workload that BENCHMARK.json declares, in its order, the script
runs the benchmark's own command (``perfbench/run.py``, unchanged) from the
repository root with ``--seed 0 --trace 0`` for the declared ``run_seconds``, and
keeps the last line of its standard output: the result, with ``op_s``,
``setup_s``, ``peak_rss_mb`` and ``failed``.  It then runs the ROADMAP's tier-1
command once and keeps its wall time, exit code and summary line, and the CLI
wall-time rows of ``scripts/cli_wall_times.py``, the ones CI prints: each
row's wall times and child peaks over its fresh processes.  The file records
the results beside the commit they ran (with the paths that differ from it,
if any) and the machine: Python, numpy and the CPU count.  A benchmark run or
a tier-1 run that exits nonzero is recorded with its exit code and last line,
and the script then exits 1.  It takes about ``run_seconds`` plus 10 s per
workload, plus the tier-1 time and about 10 s for the rows.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cli_wall_times import wall_rows

ROOT = Path(__file__).resolve().parent.parent


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, ok = [], True
    for workload in bench["workloads"]:
        argv = [*bench["command"], "--workload", workload["name"], "--seed", "0",
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        run = {"workload": workload["name"], "argv": argv, "exit_code": done.returncode}
        if done.returncode == 0:
            run["result"] = json.loads(done.stdout.strip().splitlines()[-1])
        else:
            ok = False
            run["error"] = (done.stderr.strip().splitlines() or [""])[-1]
        runs.append(run)
        print(json.dumps(run), file=sys.stderr)

    # the ROADMAP's tier-1 command, PYTHONPATH=src prepended as it writes it
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    tier1 = {"argv": argv[1:], "exit_code": done.returncode, "wall_s": time.perf_counter() - start,
             "summary": (done.stdout.strip().splitlines() or [""])[-1]}
    ok = ok and done.returncode == 0
    print(json.dumps(tier1), file=sys.stderr)

    snapshot = {
        "commit": _git("rev-parse", "HEAD"),
        "changed_paths": _git("status", "--porcelain").splitlines(),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "run_seconds": bench["run_seconds"],
        "runs": runs,
        "tier1": tier1,
        "cli_wall_times": wall_rows(),
    }
    args.out.write_text(json.dumps(snapshot, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
