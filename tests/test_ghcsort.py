from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclekit import ghcsort
from oraclekit.errors import UnsortedInputError
from oraclekit.ghcsort import (
    ghc_sort,
    merge,
    merge_round,
    multiset_equal,
    split_and_normalize,
)


def insertion_sorted(s):
    """Independent oracle: classic insertion sort, no merging anywhere."""
    out = list(s)
    for i in range(1, len(out)):
        v = out[i]
        j = i
        while j > 0 and out[j - 1] > v:
            out[j] = out[j - 1]
            j -= 1
        out[j] = v
    return out


def test_pinned_example_full_pipeline():
    s = [3, 2, 8, 9, 3, 4, 5]
    segments = split_and_normalize(s)
    assert segments == [[2, 3], [8, 9], [3, 4, 5]]
    assert merge_round(segments) == [[2, 3, 8, 9], [3, 4, 5]]
    assert ghc_sort(s) == [2, 3, 3, 4, 5, 8, 9]


def test_split_normalizes_each_run_ascending():
    assert split_and_normalize([5, 4, 4, 1]) == [[1, 4, 4, 5]]
    assert split_and_normalize([1, 1]) == [[1, 1]]  # nonincreasing run, reversed
    assert split_and_normalize([]) == []
    assert split_and_normalize([7]) == [[7]]


def test_merge_keeps_ties_from_second():
    assert merge([1], [1]) == [1, 1]
    a, b = [10**20], [int("1" + "0" * 20)]  # equal values, distinct objects
    assert a[0] == b[0] and a[0] is not b[0]
    assert merge(a, b)[0] is b[0]
    assert merge([2], [1, 2]) == [1, 2, 2]
    assert merge([], [3, 4]) == [3, 4]
    assert merge([3, 4], []) == [3, 4]


def reference_merge(a, b):
    """The index-based two-pointer merge that ``merge`` replaced."""
    merged = []
    x, y = 0, 0
    la, lb = len(a), len(b)
    while x < la and y < lb:
        if a[x] < b[y]:
            merged.append(a[x])
            x += 1
        else:
            merged.append(b[y])
            y += 1
    merged.extend(a[x:la])
    merged.extend(b[y:lb])
    return merged


def test_merge_matches_reference_on_all_small_sorted_pairs():
    big = 10**20  # beyond the small-int cache: each element is its own object
    runs = [c for n in range(6) for c in combinations_with_replacement((0, 1, 2), n)]
    for va, vb in product(runs, runs):
        a = [big + v for v in va]
        b = [big + v for v in vb]
        want = reference_merge(a, b)
        for kind in (list, tuple):
            got = merge(kind(a), kind(b))
            assert type(got) is list and got == want, (va, vb, kind)
            # Same objects in the same order: ties took b first.
            assert list(map(id, got)) == list(map(id, want)), (va, vb, kind)


def test_merge_rejects_unsorted_input():
    for kind in (list, tuple):
        with pytest.raises(UnsortedInputError, match="first"):
            merge(kind([2, 1]), kind([3]))
        with pytest.raises(UnsortedInputError, match="second"):
            merge(kind([3]), kind([2, 1]))
        with pytest.raises(UnsortedInputError, match="first"):
            merge(kind([1, 0]), kind([5, 4]))  # both unsorted: the first is named


def test_merge_does_not_mutate_inputs():
    for a, b in (([1, 3], [2, 4]), ([], [0, 0]), ([5], []), ([2, 1], [3]), ([3], [2, 1])):
        a0, b0 = list(a), list(b)
        try:
            merge(a, b)
        except UnsortedInputError:
            pass
        assert a == a0 and b == b0


@pytest.mark.parametrize(
    "s", [[], [4], [1, 2, 3], [3, 2, 8, 9, 3, 4, 5], [6, 3, 4, 2, 5, 3, 7], list(range(50, 0, -3)) * 3]
)
def test_ghc_sort_calls_module_merge_k_minus_1_times(s, monkeypatch):
    calls = []

    def counting_merge(a, b, inner=ghcsort.merge):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(ghcsort, "merge", counting_merge)
    k = len(split_and_normalize(s))
    assert ghc_sort(s) == sorted(s)
    assert len(calls) == max(k - 1, 0)


def test_merge_round_pairs_left_to_right():
    segs = [[1], [2], [3], [4], [5]]
    assert merge_round(segs) == [[1, 2], [3, 4], [5]]
    # k segments shrink to ceil(k/2) per round
    for k in range(1, 10):
        segs = [[i] for i in range(k)]
        assert len(merge_round(segs)) == (k + 1) // 2


def test_sort_edge_shapes():
    assert ghc_sort([]) == []
    assert ghc_sort([4]) == [4]
    assert ghc_sort([2, 2, 2]) == [2, 2, 2]


def test_matches_insertion_sort_exhaustively_small():
    for n in range(8):
        for seq in product((0, 1, 2), repeat=n):
            s = list(seq)
            assert ghc_sort(s) == insertion_sorted(s), s


@settings(max_examples=300)
@given(st.lists(st.integers(-1000, 1000), max_size=80))
def test_matches_builtin_sorted_random(s):
    out = ghc_sort(s)
    assert out == sorted(s)
    assert multiset_equal(out, s)


def test_multiset_equal():
    assert multiset_equal([1, 2, 2], [2, 1, 2])
    assert not multiset_equal([1, 2], [1, 2, 2])
    assert multiset_equal([], [])
