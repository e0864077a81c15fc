import json
from fractions import Fraction

import numpy as np

from tnnflow.serialize import dumps_canonical, encode_tree, encode_value, fnum, frac


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


def test_encode_tree_walks_everything():
    tree = {
        "a": [Fraction(1, 3), 0.5],
        "b": {"nested": np.array([1.0, 2.0])},
        "c": (1, 2),
        "d": {3, 1, 2},
    }
    out = encode_tree(tree)
    assert out["a"] == ["1/3", "0.5"]
    assert out["b"]["nested"] == ["1", "2"]
    assert out["c"] == [1, 2]
    assert out["d"] == [1, 2, 3]
    json.dumps(out)  # must be pure-JSON at this point


def test_dumps_canonical_is_stable():
    doc = {"z": 1, "a": [2, 3]}
    assert dumps_canonical(doc) == dumps_canonical({"a": [2, 3], "z": 1})
    assert dumps_canonical(doc).endswith("\n")
