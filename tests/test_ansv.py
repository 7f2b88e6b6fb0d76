from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclekit import ansv
from oraclekit.ansv import check_ansv, left_neighbors, oracle_neighbors, right_neighbors
from oraclekit.instrument import Tally

PINNED_SEQ = [4, 7, 8, 1, 2, 3, 9, 5, 6]


def test_pinned_left_neighbors():
    arr = left_neighbors(PINNED_SEQ)
    assert arr.direction == "left"
    assert arr.neighbors == (None, 0, 1, None, 3, 4, 5, 5, 7)


def test_pinned_right_neighbors():
    arr = right_neighbors(PINNED_SEQ)
    assert arr.direction == "right"
    assert arr.neighbors == (3, 3, 3, None, None, None, 7, None, None)


def test_survivor_is_inspected_not_popped():
    # After [3, 1, 2]: index 1 answered index 2's query and must still
    # be on the stack, underneath 2.
    out, stack, pops = ansv._scan([3, 1, 2], range(3))
    assert out == [None, None, 1]
    assert stack == [1, 2]
    assert pops == 1
    # Behavioral consequence: index 1 must serve index 3 as well.
    assert left_neighbors([3, 1, 2, 2]).neighbors == (None, None, 1, 1)


def test_equal_values_do_not_count_as_smaller():
    assert left_neighbors([2, 1, 1]).neighbors == (None, None, None)
    assert left_neighbors([5, 5]).neighbors == (None, None)


def test_empty_and_singleton():
    assert left_neighbors([]).neighbors == ()
    assert right_neighbors([]).neighbors == ()
    assert left_neighbors([8]).neighbors == (None,)


def test_pop_budget():
    tally = Tally()
    left_neighbors(list(range(500, 0, -1)) + list(range(500)), tally)
    assert tally.pops <= 1000


def test_oracle_directions():
    assert oracle_neighbors(PINNED_SEQ, "left").neighbors == left_neighbors(PINNED_SEQ).neighbors
    assert oracle_neighbors(PINNED_SEQ, "right").neighbors == right_neighbors(PINNED_SEQ).neighbors
    with pytest.raises(ValueError):
        oracle_neighbors([1], "up")


def test_matches_oracle_exhaustively_small():
    for n in range(7):
        for seq in product((0, 1, 2, 3), repeat=n):
            s = list(seq)
            assert left_neighbors(s).neighbors == oracle_neighbors(s, "left").neighbors, s
            assert right_neighbors(s).neighbors == oracle_neighbors(s, "right").neighbors, s


@settings(max_examples=300)
@given(st.lists(st.integers(-50, 50), max_size=60))
def test_matches_oracle_random(s):
    assert left_neighbors(s).neighbors == oracle_neighbors(s, "left").neighbors
    assert right_neighbors(s).neighbors == oracle_neighbors(s, "right").neighbors


@settings(max_examples=200)
@given(st.lists(st.integers(-1000, 1000), unique=True, max_size=60))
def test_mirror_law_on_distinct_values(s):
    # Right neighbors are the reflected left neighbors of the reversed
    # sequence; only guaranteed when all values are distinct.
    n = len(s)
    mirrored = left_neighbors(s[::-1]).neighbors
    expected = tuple(
        None if mirrored[n - 1 - i] is None else n - 1 - mirrored[n - 1 - i]
        for i in range(n)
    )
    assert right_neighbors(s).neighbors == expected


def test_check_accepts_correct_answers():
    report = check_ansv(PINNED_SEQ, left_neighbors(PINNED_SEQ))
    assert report.all_ok()


def test_check_flags_each_defect():
    s = [4, 1, 3]
    good = left_neighbors(s)  # (None, None, 1)
    bad_index = ansv.NeighborArray((None, None, 2), "left")
    assert not check_ansv(s, bad_index).index_ok
    bad_value = ansv.NeighborArray((None, None, 0), "left")
    r = check_ansv(s, bad_value)
    assert r.index_ok and not r.value_ok
    # claiming "no neighbor" when one exists breaks minimality
    missed = ansv.NeighborArray((None, None, None), "left")
    r = check_ansv(s, missed)
    assert r.index_ok and r.value_ok and not r.smallest_ok
    # a wrong-length array fails every flag instead of raising
    for nb in ((None,), (None, None, 1, None)):
        r = check_ansv(s, ansv.NeighborArray(nb, "left"))
        assert not (r.index_ok or r.value_ok or r.smallest_ok)
    assert check_ansv(s, good).all_ok()


def test_check_rejects_right_direction():
    with pytest.raises(ValueError):
        check_ansv([1, 2], right_neighbors([1, 2]))
