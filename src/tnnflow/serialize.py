"""Canonical JSON encoding: deterministic bytes for identical inputs.

Floats are rendered as shortest round-trip decimal strings ('%.17g'),
rationals as "p/q" strings, sets as sorted lists; ``dumps_canonical`` sorts
keys so a report serializes to the same bytes on every run with the same
seed.  No timestamps, no machine identifiers.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

__all__ = [
    "fnum",
    "frac",
    "encode_value",
    "encode_tree",
    "dumps_canonical",
]


def fnum(x) -> str:
    """Decimal string that round-trips binary64 exactly."""
    return "%.17g" % float(x)


def frac(q) -> str:
    """``"p/q"`` in lowest terms; ``Fraction`` and ``int`` are read directly, since
    ``Fraction(q)`` takes the slow ``numbers.Rational`` path."""
    if type(q) not in (Fraction, int):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def encode_value(x):
    """Encode a scalar: ints stay ints, rationals -> 'p/q', floats -> decimal."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return frac(x)
    if isinstance(x, (float, np.floating)):
        return fnum(x)
    return x


def encode_tree(obj):
    """Recursively encode a report structure for :func:`dumps_canonical`.

    Dicts keep their keys, tuples/lists/arrays become lists, sets become
    sorted lists, enums their values, and scalars go through
    :func:`encode_value` -- so no raw float ever reaches ``json.dumps``.
    """
    import enum

    if isinstance(obj, dict):
        return {str(k): encode_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_tree(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(encode_tree(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return encode_tree(obj.tolist())
    if isinstance(obj, enum.Enum):
        return obj.value
    return encode_value(obj)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
