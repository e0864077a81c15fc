"""Smoke test of the benchmark harness; makes no timing assertion.

    python3 perfbench/smoke.py

Runs every workload at its smallest size (``--size min``), untraced once and
traced twice with the same seed, and checks that

* the last line of output is a well-formed result with every metric that
  BENCHMARK.json lists for that mode, in its unit, as a finite number;
* no operation failed (``fail_ratio == 0``);
* the traced work counters repeat exactly;

and that in a directory holding only BENCHMARK.json and the benchmark, the
benchmark exits nonzero without printing a result.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

sys.path.insert(0, str(HERE))
from tracing import EXACT_UNITS  # noqa: E402


def require(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(what)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--size", "min"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(stdout: str, expected: dict) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result))
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, result["attempted"])
    require(result["failed"] == 0 and result["correct"] is True, "fail_ratio is not 0")
    metrics = result["metrics"]
    require(set(metrics) == set(expected), sorted(set(metrics) ^ set(expected)))
    for name, entry in metrics.items():
        require(entry["unit"] == expected[name], (name, entry["unit"]))
        value = entry["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value), (name, value))
    return metrics


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for spec in bench["workloads"]:
        workload = spec["name"]
        done = run(workload, 0)
        require(done.returncode == 0, done.stderr)
        check_result(done.stdout, end_to_end)
        traced = []
        for _ in range(2):
            done = run(workload, 1)
            require(done.returncode == 0, done.stderr)
            traced.append(check_result(done.stdout, per_layer))
        counters = [name for name, unit in per_layer.items() if unit in EXACT_UNITS]
        moved = [n for n in counters if traced[0][n]["value"] != traced[1][n]["value"]]
        require(not moved, f"{workload}: counters differ between identical runs: {moved}")
        print(f"ok {workload}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bench["workloads"][0]["name"], 0, cwd=bare)
    require(done.returncode != 0, "benchmark ran without the program")
    require('"metrics"' not in done.stdout, "benchmark printed a result without the program")
    shutil.rmtree(bare)
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
