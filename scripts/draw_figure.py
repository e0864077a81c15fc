#!/usr/bin/env python3
"""Render the schematic drawing of the nonnegative SL(3) flag space: the
3-ball with 6 vertices, 8 edges, and 4 visible boundary faces.

Usage: python scripts/draw_figure.py [--out figure.svg]
"""

import argparse
import sys

from tnnflow.cells import enumerate_cells, face_poset, figure_svg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figure.svg")
    args = ap.parse_args()

    census = enumerate_cells()
    svg = figure_svg(census, face_poset(census))
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out} ({len(svg)} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
