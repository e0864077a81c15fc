#!/usr/bin/env python3
"""Print the sha256 of each canonical CLI report, one line per command.

Usage: PYTHONPATH=src python scripts/report_hashes.py

Each line is ``<sha256 of stdout>  <exit code>  tnnflow <args>``; a command
the parser refuses records exit code 2 and the hash of its empty stdout.  The
commands are the canonical reports that a refactor must keep
byte-identical; diff the output of two trees to check that it did.  The
float reports depend on the platform's libm, BLAS and LAPACK: the chart's
eigenbasis is fixed in closed form, but its entries come from binary64
determinants and QR stacked per block shape.  So the hashes are compared
between trees on one machine, not against a fixed list.
"""

import contextlib
import hashlib
import io
import sys

from tnnflow import cli

COMMANDS = [
    *(["verify", "--seed", s] for s in ("0", "7", "21", "22", "23", "24")),
    ["verify", "--seed", "5", "--count", "300"],
    *(
        ["embed", "--n", n, "--J", J, "--format", "json"]
        for n, J in (("3", ""), ("3", "2"), ("4", "2"), ("4", "1"), ("4", "1,3"), ("5", "2,3"))
    ),
    ["flow", "--t", "2", "--seed", "3", "--crossing"],
    ["flow", "--t", "2", "--seed", "3", "--crossing", "--radius", "0.5"],
    ["flow", "--crossing", "--n", "4", "--J", "2"],
    ["flow", "--crossing", "--n", "5", "--J", "2,3"],
    ["flow", "--crossing", "--n", "4"],
    ["flow", "--crossing", "--n", "4", "--J", "1,3"],
    ["flow", "--crossing", "--n", "5"],
    # the largest module built here, dim 1960, and a crossing in the past
    ["flow", "--crossing", "--n", "6", "--J", "1,5"],
    ["flow", "--t", "2", "--seed", "3", "--crossing", "--radius", "1e6"],
    ["fold", "--count", "30"],
    ["fold", "--n", "6", "--count", "2", "--seed", "0"],
    ["fold", "--n", "8", "--count", "30", "--seed", "1"],
    # larger stacks for the fold gate, which flows all its samples at once
    ["fold", "--n", "4", "--count", "300", "--seed", "2"],
    ["fold", "--n", "6", "--count", "60", "--seed", "3"],
    ["sample", "--n", "3", "--count", "3"],
    ["sample", "--n", "6", "--side", "group", "--count", "3", "--seed", "0"],
    ["sample", "--n", "6", "--side", "lower", "--count", "3", "--seed", "0"],
    ["flow", "--t=-1e4", "--seed", "3"],
    ["cells", "--format", "json"],
    # cells reads no seed: the parser refuses the flag
    ["cells", "--seed", "5", "--format", "json"],
    ["cells", "--tol-vanish", "1e-6", "--format", "json"],
    ["figure"],
    ["figure", "--format", "json"],
]


def main() -> int:
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{digest}  {code}  tnnflow {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
