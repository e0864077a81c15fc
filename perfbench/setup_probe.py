"""One set-up sample in a fresh interpreter: import ``tnnflow`` and generate a
workload's inputs, then print the wall-clock time (``time.time()``) at which
the first timed operation could start.  ``run.py`` starts this script several
times and takes the median of (printed time - spawn time) as ``setup_s``.

    python3 perfbench/setup_probe.py --workload verify --seed 1 --size full
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "min"), default="full")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    tnnflow = workloads.import_tnnflow(ROOT)
    workloads.make_inputs(tnnflow, args.workload, args.seed, args.size, Path(args.out_dir))
    print(repr(time.time()))


if __name__ == "__main__":
    main()
