from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from mvdop.partitions import (
    box_move,
    contains,
    enumerate_up_to,
    format_partition,
    pad,
    parse_partition,
    partitions_of,
    sub_partitions,
    weight,
)

from .oracles import dominates


def small_partitions(r=3, max_weight=6):
    return st.sampled_from(enumerate_up_to(r, max_weight))


def test_contains_examples():
    assert contains((2, 1), (3, 1))
    assert not contains((2, 2), (3, 1))
    assert contains((0, 0), (3, 1))


def test_contains_length_mismatch():
    with pytest.raises(ValueError):
        contains((1,), (1, 0))


def test_enumerate_small_cases():
    assert enumerate_up_to(2, 2) == [(0, 0), (1, 0), (2, 0), (1, 1)]
    assert enumerate_up_to(1, 3) == [(0,), (1,), (2,), (3,)]
    assert enumerate_up_to(3, 0) == [(0, 0, 0)]


def test_enumerate_counts_against_recursive_counter():
    # independent counter: partitions of w into at most r parts
    def count(w, r, cap=None):
        if cap is None:
            cap = w
        if w == 0:
            return 1
        if r == 0:
            return 0
        return sum(count(w - first, r - 1, first) for first in range(1, min(w, cap) + 1))

    for r in (1, 2, 3, 4):
        for max_w in (0, 3, 6):
            got = len(enumerate_up_to(r, max_w))
            want = sum(count(w, r) for w in range(max_w + 1))
            assert got == want


def test_box_move_examples():
    assert box_move((2, 1), 2, +1) == (2, 2)
    assert box_move((2, 2), 2, -1) == (2, 1)
    assert box_move((2, 2), 1, -1) is None
    with pytest.raises(ValueError):
        box_move((2, 2), 3, +1)


@given(small_partitions(), st.integers(1, 3))
def test_box_move_round_trip(m, j):
    up = box_move(m, j, +1)
    if up is not None:
        assert box_move(up, j, -1) == m
    down = box_move(m, j, -1)
    if down is not None:
        assert box_move(down, j, +1) == m


@given(small_partitions(), small_partitions(), small_partitions())
def test_contains_is_a_partial_order(a, b, c):
    assert contains(a, a)
    if contains(a, b) and contains(b, a):
        assert a == b
    if contains(a, b) and contains(b, c):
        assert contains(a, c)


def test_sub_partitions_box():
    subs = sub_partitions((2, 1))
    assert subs == [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1)]
    for k in subs:
        assert contains(k, (2, 1))


def test_sub_partitions_are_exactly_contained_partitions():
    m = (3, 2, 0)
    subs = set(sub_partitions(m))
    brute = {k for k in enumerate_up_to(3, weight(m)) if contains(k, m)}
    assert subs == brute


def test_dominance_basics():
    assert dominates((2, 0), (1, 1))
    assert not dominates((1, 1), (2, 0))
    assert dominates((2, 1), (2, 1))


def test_partitions_of_is_descending_lex():
    keys = list(partitions_of(5, 3))
    assert keys == sorted(keys, reverse=True)
    assert all(weight(k) == 5 for k in keys)


def test_parse_and_format_round_trip():
    assert parse_partition("2,1,0", 3) == (2, 1, 0)
    assert parse_partition("2,1", 3) == (2, 1, 0)
    assert format_partition((2, 1, 0)) == "2,1,0"
    assert format_partition((0, 0)) == "0,0"
    with pytest.raises(ValueError):
        parse_partition("1,2", 2)


def test_pad_rejects_overflow():
    assert pad((2, 1, 0, 0), 2) == (2, 1)
    with pytest.raises(ValueError):
        pad((2, 1, 1), 2)


class _Index:
    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def test_pad_rejects_non_integer_entries():
    for bad in ((1.9, 0), (1.0, 0), (F(3, 2),), ("2", "1"), (2, None)):
        with pytest.raises(ValueError, match="not a partition"):
            pad(bad, 2)
    # integer-valued entries of other types are canonicalized to ints
    got = pad([_Index(2), True], 3)
    assert got == (2, 1, 0) and all(type(a) is int for a in got)
    # a tuple of the right length takes the same converting path
    for bools in ((True, False), [True, False]):
        got = pad(bools, 2)
        assert got == (1, 0) and all(type(a) is int for a in got)
        assert format_partition(got) == "1,0"


def test_pad_returns_canonical_tuple_unchanged():
    m = (3, 1, 0)
    assert pad(m, 3) is m
    for bad in ((1, 2, 0), (1, 0, -1)):
        with pytest.raises(ValueError, match="not a partition"):
            pad(bad, 3)
