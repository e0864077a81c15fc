#!/usr/bin/env python3
"""Time the CLI commands of the ROADMAP baseline rows, each in fresh processes.

Usage: python scripts/cli_wall_times.py [--label TEXT]

For each row of ``ROWS`` the script runs ``python -m tnnflow <args>`` from the
repository's ``src`` the given number of times, one fresh process each, and
prints a Markdown heading with the best wall time and the peak RSS of each
child (``ru_maxrss`` from ``os.wait4``).  ``--label`` is appended to each
heading, e.g. the Python version.  A command that exits nonzero raises
``CalledProcessError``.  ``scripts/bench_snapshot.py`` records the same rows
through :func:`wall_rows`.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the verify run, the n = 10 sample certified from its solid minors, the n = 8 fold
# gate and the two crossings whose time and peak the module and its chart set, with
# the number of fresh processes of each
ROWS = (
    (("verify", "--seed", "7"), 5),
    (("sample", "--n", "10", "--side", "group", "--count", "1", "--seed", "3"), 3),
    (("fold", "--n", "8", "--count", "30", "--seed", "1"), 3),
    (("flow", "--crossing", "--n", "5"), 3),
    (("flow", "--crossing", "--n", "6", "--J", "1,5"), 3),
)


def runs_of(args, runs: int) -> tuple[list, list]:
    """The wall time in s and the peak RSS in MB of each of ``runs`` fresh processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    walls, peaks = [], []
    for _ in range(runs):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "tnnflow", *args], stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        walls.append(time.perf_counter() - start)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, child.args)
        peaks.append(usage.ru_maxrss / 1024)
    return walls, peaks


def wall_rows() -> list:
    """One record per row of ``ROWS``: its arguments, its runs, each wall time and each peak."""
    rows = []
    for args, runs in ROWS:
        walls, peaks = runs_of(args, runs)
        rows.append({"args": list(args), "runs": runs, "wall_s": walls, "peak_rss_mb": peaks})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default=None, help="text appended to each heading")
    args = ap.parse_args()
    suffix = f" ({args.label})" if args.label else ""
    for row in wall_rows():
        print(f"### `tnnflow {' '.join(row['args'])}`{suffix}")
        print(f"best of {row['runs']} fresh processes: {min(row['wall_s']):.3f} s; "
              f"peak RSS of each: {', '.join(f'{peak:.0f}' for peak in row['peak_rss_mb'])} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
