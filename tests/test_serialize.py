import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tnnflow.serialize import dumps_canonical, encode_value, fnum, frac
from tnnflow.totpos import Membership, Positivity


def test_float_encoding_roundtrips():
    for x in (0.1, 1.0 / 3.0, 2.0 ** -40, 1e300, -0.0):
        assert float(fnum(x)) == x


def test_fraction_encoding():
    assert frac(Fraction(3, 7)) == "3/7"
    assert frac(2) == "2/1"
    assert frac(Fraction(-6, 4)) == frac(-1.5) == frac(np.int64(-3) / 2) == "-3/2"
    assert frac(np.int64(-4)) == frac(True * -4) == "-4/1"
    assert frac(0) == frac(Fraction(0)) == "0/1"


def test_encode_value_types():
    assert encode_value(True) is True
    assert encode_value(np.bool_(False)) is False
    assert encode_value(np.int64(3)) == 3
    assert encode_value(Fraction(1, 2)) == "1/2"
    assert isinstance(encode_value(np.float64(0.5)), str)


def test_dumps_canonical_walks_everything():
    tree = {
        "a": [Fraction(1, 3), 0.5],
        "b": {"nested": np.array([1.0, 2.0])},
        "c": (1, 2),
        "d": {3, 1, 2},
    }
    out = json.loads(dumps_canonical(tree))
    assert out["a"] == ["1/3", "0.5"]
    assert out["b"]["nested"] == ["1", "2"]
    assert out["c"] == [1, 2]
    assert out["d"] == [1, 2, 3]


def test_dumps_canonical_is_stable():
    doc = {"z": 1, "a": [2, 3]}
    assert dumps_canonical(doc) == dumps_canonical({"a": [2, 3], "z": 1})
    assert dumps_canonical(doc).endswith("\n")


def _reference(obj) -> str:
    """The text of the two-pass encoder: the report copied into JSON scalars, then ``json.dumps``."""
    return json.dumps(oracles.encode_tree(obj), sort_keys=True, indent=2) + "\n"


EXTREME_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, 1e16]

floats = st.one_of(st.floats(), st.sampled_from(EXTREME_FLOATS))
fractions = st.one_of(
    st.fractions(),
    st.sampled_from([Fraction(0), Fraction(-1, 3), Fraction(2**200 + 1, 3), Fraction(-3, 2**201 + 1)]),
    st.builds(Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**300)),
)
ints = st.one_of(st.integers(), st.integers(-(2**200), 2**200), st.sampled_from([2**64, -(2**64) - 1, 2**63]))
# strings past ASCII, with control characters, quotes and backslashes
texts = st.one_of(st.text(), st.text(st.sampled_from('\x00\x1f\x7f"\\/\n\t é€😀a')))
enums = st.sampled_from(list(Positivity) + list(Membership))
scalars = st.one_of(
    texts,
    ints,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    floats,
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    fractions,
    st.none(),
    enums,
)
# each set holds elements of one kind, as the writer sorts them against each other
hashable_sets = st.one_of(
    st.sets(ints),
    st.sets(texts),
    st.sets(fractions),
    st.sets(floats),
    # tuples are ordered as the lists they are written as: (10.0,) before (9.0,), since "10" < "9"
    st.sets(st.tuples(st.integers(-3, 3), st.sampled_from([9.0, 10.0, 0.5, -1.0]), fractions)),
    st.sets(enums),
    # and frozensets as their sorted lists: {10.0} before {9.0, 100.0}, since "10" < "100"
    st.sets(st.frozensets(st.sampled_from([9.0, 10.0, 100.0, 0.5]))),
)
arrays = st.one_of(
    st.lists(floats).map(lambda xs: np.array(xs, dtype=np.float64)),
    st.lists(st.floats(width=32), max_size=6).map(lambda xs: np.array(xs, dtype=np.float32)),
    st.lists(st.integers(-(2**63), 2**63 - 1)).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.booleans()).map(lambda xs: np.array(xs, dtype=bool)),
    st.lists(st.lists(fractions, min_size=2, max_size=2), max_size=3).map(
        lambda rows: np.array(rows, dtype=object).reshape(len(rows), 2)
    ),
    st.integers(0, 3).map(lambda n: np.empty((n, 0))),
)
# keys that collide once written: 1 and "1", 0 and "0"
keys = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.sampled_from([1, "1", 0, "0", -1, "-1"]))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        hashable_sets,
        hashable_sets.map(frozenset),
        arrays,
    )


payloads = st.recursive(scalars, _containers, max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(payloads)
@example({1: "int key", "1": "str key"})
@example({"1": "str key", 1: "int key"})
@example({"a": [], "b": {}, "c": (), "d": set(), "e": frozenset(), "f": np.empty(0), "g": ""})
@example([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, np.float32(0.1)])
@example([Fraction(-(2**201), 3), Fraction(0), 2**65, -(2**64), np.int64(-(2**63)), True, np.bool_(False), None])
@example({"s": "\x00\x1f é😀\"\\", "p": Positivity.TOTALLY_POSITIVE, "m": Membership.OUTSIDE})
@example(np.array([[Fraction(1, 3), 2], [np.float64(0.5), True]], dtype=object))
@example({frozenset({10.0}), frozenset({9.0, 100.0}), frozenset()})
@example({frozenset({2, 1}): 3, (1, 2): 4, None: 5, 0.5: 6})
def test_dumps_canonical_is_the_two_pass_text(payload):
    assert dumps_canonical(payload) == _reference(payload)


@pytest.mark.parametrize(
    "payload",
    [{1, "a"}, [{Fraction(1, 2), 3}], {"x": 1j}, [object()], np.array([1j])],
    ids=["mixed-set", "fraction-and-int-set", "complex", "object", "complex-array"],
)
def test_dumps_canonical_refuses_what_the_two_pass_text_refuses(payload):
    """A set whose written elements do not compare, or a value with no JSON form, raises ``TypeError`` both ways."""
    with pytest.raises(TypeError):
        _reference(payload)
    with pytest.raises(TypeError):
        dumps_canonical(payload)
