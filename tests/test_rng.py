"""Stream derivation: reproducibility and independence of tagged streams."""

import numpy as np

from srrw.rng import as_generator, stream


def test_same_path_same_numbers():
    a = stream(42, 7, 0).random(16)
    b = stream(42, 7, 0).random(16)
    assert (a == b).all()


def test_distinct_paths_differ():
    base = stream(5, 1, 0).random(8)
    for path in [(5, 1, 1), (5, 2, 0), (6, 1, 0), (5,), (5, 1)]:
        other = stream(*path).random(8)
        assert not (other == base).all()


def test_path_order_matters():
    a = stream(9, 1, 2).random(4)
    b = stream(9, 2, 1).random(4)
    assert not (a == b).all()


def test_as_generator_passthrough():
    g = stream(3, 1)
    assert as_generator(g) is g
    # a tuple names a stream; extra path segments append
    a = as_generator((3, 1), 5).random(4)
    b = stream(3, 1, 5).random(4)
    assert (a == b).all()
    c = as_generator(3, 1, 5).random(4)
    assert (a == c).all()


def test_negative_and_large_identifiers():
    # 64-bit masking keeps any int usable as a path segment
    a = stream(-1, 2 ** 70 + 3).random(4)
    b = stream(-1, 2 ** 70 + 3).random(4)
    assert (a == b).all()


def test_streams_look_independent():
    # crude check: correlation across 200 sibling streams stays small
    draws = np.array([stream(123, 40, i).random(2) for i in range(200)])
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(corr) < 0.25


def test_stream_bits_are_pinned():
    # the generator and its keying fix every Monte Carlo count; a silent
    # change of either must show here
    assert stream(1729, 20, 0).random(4).tolist() == [
        0.3098397319191133, 0.7881120023852984, 0.29815148993692997,
        0.32796387915767655]
    assert stream(5, 1).random(4).tolist() == [
        0.5162884233464673, 0.6125640727007012, 0.21231832877073098,
        0.8630711189267057]
