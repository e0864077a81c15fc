#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json once and keep the results in one JSON file.

Usage: python scripts/bench_snapshot.py --out BENCH_<name>.json

For each workload that BENCHMARK.json declares, in its order, the script
runs the benchmark's own command (``perfbench/run.py``, unchanged) from the
repository root with ``--seed 0 --trace 0`` for the declared ``run_seconds``, and
keeps the last line of its standard output: the result, with ``op_s``,
``setup_s``, ``peak_rss_mb`` and ``failed``.  The file records each result
beside the commit it ran (with the paths that differ from it, if any) and the
machine: Python, numpy and the CPU count.  A run that exits
nonzero is recorded with its exit code and last error line, and the script
then exits 1.  It takes about ``run_seconds`` plus 10 s per workload.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

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
    }
    args.out.write_text(json.dumps(snapshot, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
