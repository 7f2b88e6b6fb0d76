import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclekit import ghcsort
from oraclekit.errors import UnsortedInputError
from oraclekit.ghcsort import ghc_sort, is_sorted, merge, multiset_equal, oracle_merge
from oraclekit.monotonic import compute_cutpoints


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


def record_merges(monkeypatch):
    """Wrap the merge kernel ``ghcsort._merge_runs``, which both ``merge``
    and ``ghc_sort`` call, so that each call appends its ``(a, b)``
    arguments to the returned list."""
    calls = []

    def recording_merge(a, b, inner=ghcsort._merge_runs):
        calls.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(ghcsort, "_merge_runs", recording_merge)
    return calls


def rounds_reference(s):
    """The round-based schedule ``ghc_sort`` replaced: cut all segments
    first, then merge adjacent pairs round by round, an odd last segment
    carried over, calling ``ghcsort.merge`` through the module."""
    cut = compute_cutpoints(s)
    segments = []
    for lo, hi in zip(cut, cut[1:]):
        seg = list(s[lo:hi])
        if len(seg) >= 2 and seg[0] >= seg[1]:
            seg.reverse()
        segments.append(seg)
    if not segments:
        return []
    while len(segments) > 1:
        merged = [ghcsort.merge(segments[i], segments[i + 1]) for i in range(0, len(segments) - 1, 2)]
        if len(segments) % 2:
            merged.append(segments[-1])
        segments = merged
    return segments[0]


def test_pinned_example_full_pipeline(monkeypatch):
    calls = record_merges(monkeypatch)
    assert ghc_sort([3, 2, 8, 9, 3, 4, 5]) == [2, 3, 3, 4, 5, 8, 9]
    assert calls == [([2, 3], [8, 9]), ([2, 3, 8, 9], [3, 4, 5])]


def test_ghc_sort_normalizes_single_runs_without_merging(monkeypatch):
    calls = record_merges(monkeypatch)
    assert ghc_sort([5, 4, 4, 1]) == [1, 4, 4, 5]
    assert ghc_sort([1, 1]) == [1, 1]  # nonincreasing run, reversed
    x, y = 10**20, int("1" + "0" * 20)  # equal values, distinct objects
    out = ghc_sort([x, y])
    assert out[0] is y and out[1] is x
    assert ghc_sort([]) == []
    assert ghc_sort([7]) == [7]
    assert calls == []


def test_ghc_sort_merges_the_pairs_of_the_round_schedule(monkeypatch):
    """Same merge pairs by element identity, k-1 calls, and an output
    identical by identity to the round-based reference."""
    calls = record_merges(monkeypatch)
    rng = random.Random(16)
    big = 10**20  # big + v is a fresh object: equal values stay distinguishable
    seen_k = set()
    for n in range(260):
        for hi in (2, 9, 1000):
            s = [big + rng.randint(0, hi) for _ in range(n)]
            k = len(compute_cutpoints(s)) - 1
            seen_k.add(k)
            calls.clear()
            want = rounds_reference(s)
            want_pairs = Counter((tuple(map(id, a)), tuple(map(id, b))) for a, b in calls)
            calls.clear()
            got = ghc_sort(s)
            got_pairs = Counter((tuple(map(id, a)), tuple(map(id, b))) for a, b in calls)
            assert len(calls) == max(k - 1, 0), (n, hi)
            assert got_pairs == want_pairs, (n, hi)
            assert list(map(id, got)) == list(map(id, want)), (n, hi)
    assert set(range(34)) <= seen_k and max(seen_k) >= 100


def test_is_sorted():
    assert is_sorted([])
    assert is_sorted([7])
    assert is_sorted([1, 1])
    assert not is_sorted([2, 1])
    assert is_sorted((1, 2, 2)) and not is_sorted((1, 3, 2))


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


def sorted_pairs(rng):
    """Seeded sorted big-int lists ``(a, b)`` of length 0-300 with many
    ties: interleaved, barely overlapping, and one wholly above the other.
    Lengths cross timsort's 64-element insertion-sort cut-off, and the
    barely overlapping runs are long enough for it to gallop."""
    big = 10**20  # big + v is a fresh object: equal values stay distinguishable
    lengths = (0, 1, 2, 7, 63, 64, 65, 128, 300)
    for la, lb in product(lengths, repeat=2):
        for hi in (0, 2, 9, la + lb):  # value ranges from all-equal to mostly distinct
            yield (sorted(big + rng.randint(0, hi) for _ in range(la)),
                   sorted(big + rng.randint(0, hi) for _ in range(lb)))
        for lo_a, lo_b in ((0, 990), (990, 0), (0, 1000), (1000, 0)):  # touching or apart
            yield (sorted(big + lo_a + rng.randint(0, 1000) for _ in range(la)),
                   sorted(big + lo_b + rng.randint(0, 1000) for _ in range(lb)))
    for _ in range(200):
        yield tuple(sorted(big + rng.randint(0, 40) for _ in range(rng.randint(0, 300))) for _ in "ab")


def test_merge_is_the_oracle_merge_by_identity():
    for a, b in sorted_pairs(random.Random(19)):
        want = oracle_merge(a, b)
        assert list(map(id, want)) == list(map(id, reference_merge(a, b)))
        ids_a, ids_b = list(map(id, a)), list(map(id, b))
        for x, y in ((a, b), (tuple(a), tuple(b))):
            got = merge(x, y)
            assert type(got) is list and list(map(id, got)) == list(map(id, want)), (len(a), len(b))
        assert list(map(id, a)) == ids_a and list(map(id, b)) == ids_b  # inputs untouched


def test_merge_of_ranges_is_the_oracle_merge():
    # Galloping across long ranges that barely overlap, and ranges mixed
    # with lists; a range holds no ties, so values are compared.
    for a, b in (
        (range(300), range(290, 600)),
        (range(290, 600), range(300)),
        (range(0, 300, 3), range(1, 300, 3)),
        (range(65), [64] * 70),
        ([0] * 64, range(0, 0)),
        (range(200), range(200)),
    ):
        got = merge(a, b)
        assert got == oracle_merge(a, b) == sorted([*a, *b]), (a, b)


def test_ghc_sort_is_sorted_of_reversed_input_by_identity():
    """Ties come out in reverse input order: an oracle for the whole pipeline."""
    rng = random.Random(19)
    big = 10**20
    for n in range(300):
        for hi in (0, 1, 2, 5, 1000):
            s = [big + rng.randint(0, hi) for _ in range(n)]
            want = sorted(reversed(s))
            assert list(map(id, ghc_sort(s))) == list(map(id, want)), (n, hi)


def test_merge_rejects_unsorted_input():
    long_sorted = list(range(300))
    long_unsorted = long_sorted[:150] + [-1] + long_sorted[150:]
    for kind in (list, tuple):
        for a, b, which in (
            ([2, 1], [3], "first"),
            ([3], [2, 1], "second"),
            ([1, 0], [5, 4], "first"),  # both unsorted: the first is named
            (long_unsorted, long_sorted, "first"),
            (long_sorted, long_unsorted, "second"),
            (range(5, 0, -1), long_unsorted, "first"),
        ):
            with pytest.raises(UnsortedInputError) as err:
                merge(kind(a), kind(b))
            assert str(err.value) == f"{which} input to merge is not sorted"


def test_ghc_sort_rejects_an_unsorted_merged_segment(monkeypatch):
    def bad_cut(s):  # [1, 3, 2] is neither nondecreasing nor nonincreasing
        return [0, 1, len(s)]

    monkeypatch.setattr(ghcsort, "compute_cutpoints", bad_cut)
    with pytest.raises(UnsortedInputError) as err:
        ghc_sort([5, 1, 3, 2])
    assert str(err.value) == "segment s[1:4] is not monotonic"
    # A lone segment is never merged and so is not checked.
    monkeypatch.setattr(ghcsort, "compute_cutpoints", lambda s: [0, len(s)])
    assert ghc_sort([1, 3, 2]) == [1, 3, 2]


def test_merge_checks_then_calls_the_kernel_once(monkeypatch):
    calls = record_merges(monkeypatch)
    a, b = [1, 4], (2, 3)
    assert merge(a, b) == [1, 2, 3, 4]
    assert len(calls) == 1 and calls[0][0] is a and calls[0][1] is b
    calls.clear()
    for x, y in (([2, 1], [3]), ([3], [2, 1])):
        with pytest.raises(UnsortedInputError):
            merge(x, y)
    assert calls == []


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
    calls = record_merges(monkeypatch)
    k = len(compute_cutpoints(s)) - 1
    assert ghc_sort(s) == sorted(s)
    assert len(calls) == max(k - 1, 0)


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
