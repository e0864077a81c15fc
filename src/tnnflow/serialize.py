"""Canonical JSON encoding: deterministic bytes for identical inputs, with no
timestamps and no machine identifiers.

:func:`dumps_canonical` is the one writer.  It walks a report once,
dispatching on ``type()`` first, and appends the text to a list of parts:
strings through ``json``'s ASCII escaper, ints by ``int.__repr__``, floats
as shortest round-trip decimal strings (:func:`fnum`) and rationals as
``"p/q"`` strings (:func:`frac`), dict keys as ``str(k)``, sorted, with a
2-space indent.  Any other value is read as the plain one it stands for: a
tuple or array as a list, a set as a sorted list, an enum as its value, a
numpy scalar by :func:`encode_value`.  The text is that of
``json.dumps(..., sort_keys=True, indent=2)`` on the report with every
scalar encoded, which ``tests/oracles.py`` keeps as the reference.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

__all__ = [
    "fnum",
    "frac",
    "encode_value",
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


def _sort_key(x):
    """What the set element ``x`` is written as, for ordering a set the way its written elements compare."""
    if isinstance(x, tuple):
        return [_sort_key(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(map(_sort_key, x))
    if isinstance(x, enum.Enum):
        return x.value
    return encode_value(x)


def _plain(obj):
    """``obj`` as a value of a type :func:`_write` dispatches on: a dict, a list, or a scalar."""
    if isinstance(obj, dict):  # a subclass
        return dict(obj)
    if isinstance(obj, (list, tuple)):  # a subclass
        return list(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=_sort_key)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, enum.Enum):
        return obj.value
    value = encode_value(obj)
    if isinstance(value, str):
        return str(value)
    if value is obj:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return value


def _write(obj, parts: list, indent: str) -> None:
    """Append the canonical text of ``obj`` to ``parts``; ``indent`` is a newline and the
    spaces of the line ``obj`` starts on."""
    kind = type(obj)
    if kind is str:
        parts.append(_quote(obj))
    elif kind is int:
        parts.append(int.__repr__(obj))
    elif kind is Fraction:
        parts.append(f'"{frac(obj)}"')
    elif kind is float or kind is np.float64:
        parts.append(f'"{fnum(obj)}"')
    elif kind is dict:
        if not obj:
            parts.append("{}")
            return
        inner = indent + "  "
        # a key is written as str(k): of two keys that read alike, the later one's value is kept
        items = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for key in sorted(items):
            parts.append(f"{sep}{_quote(key)}: ")
            _write(items[key], parts, inner)
            sep = "," + inner
        parts.append(indent + "}")
    elif kind is list or kind is tuple:
        if not obj:
            parts.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _write(value, parts, inner)
            sep = "," + inner
        parts.append(indent + "]")
    elif kind is bool:
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    else:
        _write(_plain(obj), parts, indent)


def dumps_canonical(obj) -> str:
    """The canonical JSON text of a report, with a final newline."""
    parts: list = []
    _write(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)
