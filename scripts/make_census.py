#!/usr/bin/env python3
"""Regenerate the SL(3) cell census JSON, with all validations run.

Exits 1 unless the census passes the same gate as ``tnnflow cells``.

Usage: python scripts/make_census.py [--out census.json]
"""

import argparse
import sys

from tnnflow.cells import (
    census_payload,
    census_verdict,
    enumerate_cells,
    face_poset,
    limit_report,
    validate_poset,
)
from tnnflow.serialize import dumps_canonical


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    census = enumerate_cells()
    poset = face_poset(census)
    doc = census_payload(census, poset)
    doc["poset_checks"] = validate_poset(poset)
    doc["limits"] = limit_report(census, poset)

    f = census.f_vector
    # the verdict of ``tnnflow cells``: f-vector, vertex labels, poset checks and limits
    ok = all(census_verdict(census, doc["poset_checks"], doc["bruhat_counts"]).values()) and doc["limits"]["passed"]
    print(f"{len(census.cells)} cells: f = {f}, census passed: {ok}", file=sys.stderr)

    text = dumps_canonical(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
