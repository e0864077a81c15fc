#!/usr/bin/env python3
"""Print each leaf that differs between two JSON reports, one line per leaf.

Usage: python scripts/report_diff.py OLD.json NEW.json

Each line is ``<path>  <old value>  ->  <new value>``, the path written as
``$.section.cases[2].worst``; a leaf present on one side only reads
``(absent)`` on the other, and a list or object that one side replaces by a
scalar counts as one leaf.  It prints nothing when the reports agree.  It
reports and gates nothing: the exit code is 0 either way.  Anything but two
arguments exits 2, and a file that is not JSON raises.
"""

import json
import sys
from pathlib import Path

_ABSENT = object()


def leaf_diffs(old, new, path="$"):
    """``(path, old, new)`` for each differing leaf of two JSON values, in document order;
    ``_ABSENT`` stands for a key or list entry that one side lacks."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from leaf_diffs(old.get(key, _ABSENT), new.get(key, _ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from leaf_diffs(old[i] if i < len(old) else _ABSENT, new[i] if i < len(new) else _ABSENT,
                                  f"{path}[{i}]")
    elif old != new or type(old) is not type(new):  # 1 == 1.0 == True, yet the bytes differ
        yield path, old, new


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(name).read_text()) for name in argv)
    for path, a, b in leaf_diffs(old, new):
        print(f"{path}  {_show(a)}  ->  {_show(b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
