"""Artifact emission: byte determinism and lossless round trips."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from srrw.reports import (config_hash, csv_bytes, format_value, json_bytes,
                          parse_csv)


def test_format_value_types():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(17) == "17"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(1 / 3) == "0.33333333333333331"
    assert float(format_value(0.1)) == 0.1
    assert format_value("plain") == "plain"


def test_config_hash_stable_and_order_free():
    h = config_hash({"b": 2, "a": 1})
    assert h == config_hash({"a": 1, "b": 2})
    assert len(h) == 12
    assert h != config_hash({"a": 1, "b": 3})


def test_csv_round_trip_exact():
    meta = {"seed": "1729", "version": "0.1.0"}
    columns = ["n", "value", "ok", "key"]
    rows = [(4, 0.604166666666666, True, "e"),
            (8, 1e-17, False, "(-1,-1)"),
            (16, -0.0, True, 'say "a,b"')]
    data = csv_bytes(meta, columns, rows)
    m, c, r = parse_csv(data)
    assert m == meta
    assert c == columns
    assert len(r) == len(rows)
    for got, want in zip(r, rows):
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] is want[2]
        assert got[3] == want[3]
    # a cell holding a comma or a quote is quoted, not split
    assert b',false,"(-1,-1)"\n' in data
    # integral floats come back as ints (value-equal); the sign of zero
    # is the one thing the text form forgets
    assert r[2][1] == 0 and isinstance(r[2][1], int)


def test_csv_bytes_deterministic():
    rows = [(1, 0.5)]
    a = csv_bytes({"x": "1", "a": "2"}, ["n", "p"], rows)
    b = csv_bytes({"a": "2", "x": "1"}, ["n", "p"], rows)
    assert a == b
    assert a.startswith(b"# a: 2\n# x: 1\nn,p\n")


@given(st.lists(
    st.tuples(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
              st.floats(allow_nan=False, allow_infinity=False,
                        width=64)),
    min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_csv_floats_survive_bit_exact(rows):
    data = csv_bytes({}, ["k", "x"], rows)
    _, _, parsed = parse_csv(data)
    for (k, x), (k2, x2) in zip(rows, parsed):
        assert k == k2
        assert x == x2 or (math.isnan(x) and math.isnan(x2))
        if x != 0:
            assert math.copysign(1.0, x) == math.copysign(1.0, x2)


def test_json_bytes_sorted_and_stable():
    a = json_bytes({"b": 1, "a": [1, 2]})
    b = json_bytes({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith(b"\n")
