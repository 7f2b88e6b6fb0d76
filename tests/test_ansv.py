import time
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


def _reference_right_neighbors(s):
    """The direct right scan, min{ y > i : s[y] < s[i] }, kept as the reference."""
    n = len(s)
    out = [None] * n
    for i in range(n):
        vi = s[i]
        for y in range(i + 1, n):
            if s[y] < vi:
                out[i] = y
                break
    return tuple(out)


def test_matches_oracle_exhaustively_small():
    for n in range(7):
        for seq in product((0, 1, 2, 3), repeat=n):
            s = list(seq)
            assert left_neighbors(s).neighbors == oracle_neighbors(s, "left").neighbors, s
            assert right_neighbors(s).neighbors == oracle_neighbors(s, "right").neighbors, s
            assert oracle_neighbors(s, "right").neighbors == _reference_right_neighbors(s), s


@settings(max_examples=300)
@given(st.lists(st.integers(-50, 50), max_size=60))
def test_matches_oracle_random(s):
    assert left_neighbors(s).neighbors == oracle_neighbors(s, "left").neighbors
    assert right_neighbors(s).neighbors == oracle_neighbors(s, "right").neighbors


@settings(max_examples=200)
@given(st.lists(st.integers(-5, 5), max_size=60))
def test_mirror_law_holds_with_ties(s):
    # Right neighbors are the reflected left neighbors of the reversed
    # sequence. Both sides compare with a strict <, so ties mirror too;
    # the narrow value range makes ties common.
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


def test_check_accepts_right_arrays():
    assert check_ansv(PINNED_SEQ, right_neighbors(PINNED_SEQ)).all_ok()
    assert check_ansv([1, 2], right_neighbors([1, 2])).all_ok()
    r = check_ansv([1, 2], ansv.NeighborArray((None, None), "up"))
    assert (r.index_ok, r.value_ok, r.smallest_ok) == (False, False, False)


def _reference_check_ansv(s, a):
    """The three-loop checker with a direct gap scan, kept as the reference."""
    n = len(s)
    nb = a.neighbors
    if len(nb) != n:
        return ansv.AnsvReport(index_ok=False, value_ok=False, smallest_ok=False)
    if a.direction == "right":
        return _reference_check_right(s, nb)

    index_ok = True
    for i in range(n):
        y = nb[i]
        if y is not None and not 0 <= y < i:
            index_ok = False
            break

    value_ok = True
    for i in range(n):
        y = nb[i]
        if y is not None and not (0 <= y < n and s[y] < s[i]):
            value_ok = False
            break

    smallest_ok = True
    for i in range(n):
        y = nb[i]
        start = 0 if y is None else max(0, y + 1)
        vi = s[i]
        for j in range(start, i):
            if s[j] < vi:
                smallest_ok = False
                break
        if not smallest_ok:
            break

    return ansv.AnsvReport(index_ok, value_ok, smallest_ok)


def _reference_check_right(s, nb):
    """The right side written out directly, not through the mirror."""
    n = len(s)
    index_ok = True
    for i in range(n):
        y = nb[i]
        if y is not None and not i < y < n:
            index_ok = False
            break

    value_ok = True
    for i in range(n):
        y = nb[i]
        if y is not None and not (0 <= y < n and s[y] < s[i]):
            value_ok = False
            break

    smallest_ok = True
    for i in range(n):
        y = nb[i]
        stop = n if y is None else min(y, n)
        vi = s[i]
        for j in range(i + 1, stop):
            if s[j] < vi:
                smallest_ok = False
                break
        if not smallest_ok:
            break

    return ansv.AnsvReport(index_ok, value_ok, smallest_ok)


def test_check_matches_reference_exhaustively_small():
    # Every s in {0,1,2}^n against every neighbor tuple over None, -2..n,
    # read as a left and as a right array.
    for n in range(5):
        arrays = [
            ansv.NeighborArray(nb, direction)
            for nb in product((None, *range(-2, n + 1)), repeat=n)
            for direction in ("left", "right")
        ]
        for seq in product((0, 1, 2), repeat=n):
            s = list(seq)
            for a in arrays:
                assert check_ansv(s, a) == _reference_check_ansv(s, a), (s, a)


def test_check_clamps_out_of_range_neighbors():
    # An unclamped walk from neighbor -5 would read s[-1]; on [4, 1, 0]
    # that wraps to 0 < 1 and wrongly fails smallest_ok.
    a = ansv.NeighborArray((None, -5, 99), "left")
    for s in ([4, 1, 3], [4, 1, 0]):
        report = check_ansv(s, a)
        assert report == _reference_check_ansv(s, a)
        assert (report.index_ok, report.value_ok, report.smallest_ok) == (
            False,
            False,
            True,
        )


def test_check_is_linear_on_decreasing_input():
    # A direct gap scan takes about 9 s here; the chain walk is O(n). The
    # right case is its mirror: increasing input.
    decreasing = list(range(20_000, 0, -1))
    for s, solve in ((decreasing, left_neighbors), (decreasing[::-1], right_neighbors)):
        a = solve(s)
        t0 = time.perf_counter()
        report = check_ansv(s, a)
        elapsed = time.perf_counter() - t0
        assert report.all_ok(), a.direction
        assert elapsed < 1.0, (a.direction, elapsed)
