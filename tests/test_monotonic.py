import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclekit import monotonic
from oraclekit.errors import BoundsError
from oraclekit.instrument import Tally
from oraclekit.monotonic import (
    CutReport,
    check_cutpoints,
    compute_cutpoints,
    is_monotonic,
    oracle_cutpoints,
)


def test_is_monotonic_small_slices():
    s = [1, 2, 2, 1]
    assert is_monotonic(s, 0, 0)
    assert is_monotonic(s, 0, 1)
    assert is_monotonic(s, 0, 2)  # strictly increasing
    assert not is_monotonic(s, 0, 3)  # 1 2 2 is neither
    assert is_monotonic(s, 1, 4)  # 2 2 1 is nonincreasing
    assert is_monotonic(s, 2, 4)


def test_is_monotonic_bounds_checked():
    with pytest.raises(BoundsError):
        is_monotonic([1, 2], 1, 0)
    with pytest.raises(BoundsError):
        is_monotonic([1, 2], 0, 3)
    with pytest.raises(BoundsError):
        is_monotonic([1, 2], -1, 2)


def test_cutpoints_pinned_examples():
    assert compute_cutpoints([1, 2, 3, 4, 5, 7]) == [0, 6]
    assert compute_cutpoints([1, 4, 7, 3, 3, 5, 9]) == [0, 3, 5, 7]
    assert compute_cutpoints([6, 3, 4, 2, 5, 3, 7]) == [0, 2, 4, 6, 7]


def test_cutpoints_edge_shapes():
    assert compute_cutpoints([]) == [0]
    assert compute_cutpoints([9]) == [0, 1]
    assert compute_cutpoints([5, 5]) == [0, 2]
    assert compute_cutpoints([1, 2, 2]) == [0, 2, 3]


def test_report_accepts_algorithm_output():
    for s in ([], [3], [1, 2, 2], [6, 3, 4, 2, 5, 3, 7], [5, 5, 5, 5]):
        report = check_cutpoints(s, compute_cutpoints(s))
        assert report.all_ok()
        assert report.first_violation is None


def test_report_flags_are_independent():
    s = [1, 2, 3]
    assert not check_cutpoints(s, []).non_empty
    r = check_cutpoints(s, [0, 2])
    assert r.non_empty and not r.begin_to_end
    r = check_cutpoints(s, [0, 2, 1, 3])
    assert not r.within_bounds
    # valid shape, but [1,2] then [3] is not right-maximal
    r = check_cutpoints(s, [0, 2, 3])
    assert r.monotonic and not r.right_maximal
    assert r.first_violation == ("right_maximal", 0)


# Cuts that are no index in range(n + 1) for n = 3, and True, which reads as 1.
NON_INDEX_CUTS = (None, "1", 1.5, 3.0, -1, 4)


@pytest.mark.parametrize("pos", range(3))
@pytest.mark.parametrize("bad", NON_INDEX_CUTS + (True,), ids=repr)
def test_non_index_cut_makes_false_every_flag_that_reads_it(bad, pos):
    s = [1, 2, 3]
    cut = [0, 2, 3]
    cut[pos] = bad
    r = check_cutpoints(s, cut)
    if bad is True:
        cut[pos] = 1
        assert r == check_cutpoints(s, cut)
        return
    end = pos != 1  # begin_to_end reads only the first and the last cut
    assert r.non_empty and r.begin_to_end is not end
    assert not (r.within_bounds or r.monotonic or r.right_maximal)
    assert r.first_violation == (("begin_to_end", 0) if end else ("within_bounds", 1))


def test_report_catches_nonmonotonic_segment():
    s = [1, 3, 2]
    r = check_cutpoints(s, [0, 3])
    assert not r.monotonic
    assert not r.right_maximal  # not granted when a segment is broken
    assert r.first_violation == ("monotonic", 0)


def test_comparison_budget():
    tally = Tally()
    s = list(range(1000)) + list(range(1000, 0, -1))
    compute_cutpoints(s, tally)
    assert tally.comparisons <= 2 * len(s)


def test_matches_oracle_exhaustively_small():
    for n in range(8):
        for seq in product((0, 1, 2), repeat=n):
            s = list(seq)
            assert compute_cutpoints(s) == oracle_cutpoints(s), s


@settings(max_examples=300)
@given(st.lists(st.integers(-20, 20), max_size=60))
def test_matches_oracle_random(s):
    cut = compute_cutpoints(s)
    assert cut == oracle_cutpoints(s)
    assert check_cutpoints(s, cut).all_ok()


def test_tally_accumulates_across_calls():
    tally = Tally()
    compute_cutpoints([1, 2, 3], tally)
    first = tally.comparisons
    compute_cutpoints([1, 2, 3], tally)
    assert tally.comparisons == 2 * first
    assert monotonic.compute_cutpoints([1, 2, 3]) == [0, 3]


def _reference_check_cutpoints(s, cut):
    """The per-segment ``is_monotonic`` checker, kept as the reference."""
    n = len(s)
    m = len(cut)
    non_empty = m > 0
    begin_to_end = m > 0 and cut[0] == 0 and cut[-1] == n
    within_bounds = True
    bounds_at = 0
    for k, c in enumerate(cut):
        if not 0 <= c <= n or (k > 0 and cut[k - 1] >= c):
            within_bounds = False
            bounds_at = k
            break
    monotonic = True
    monotonic_at = 0
    for k in range(m - 1):
        lo, hi = cut[k], cut[k + 1]
        if not (0 <= lo <= hi <= n and is_monotonic(s, lo, hi)):
            monotonic = False
            monotonic_at = k
            break
    right_maximal = monotonic
    maximal_at = 0
    if monotonic:
        for k in range(m - 1):
            hi = cut[k + 1]
            if hi < n and is_monotonic(s, cut[k], hi + 1):
                right_maximal = False
                maximal_at = k
                break
    first_violation = None
    if not non_empty:
        first_violation = ("non_empty", 0)
    elif not begin_to_end:
        first_violation = ("begin_to_end", 0)
    elif not within_bounds:
        first_violation = ("within_bounds", bounds_at)
    elif not monotonic:
        first_violation = ("monotonic", monotonic_at)
    elif not right_maximal:
        first_violation = ("right_maximal", maximal_at)
    return CutReport(
        non_empty,
        begin_to_end,
        within_bounds,
        monotonic,
        right_maximal,
        first_violation,
    )


def test_check_matches_reference_exhaustively_small():
    for n in range(5):
        cuts = [
            list(c) for size in range(4) for c in product(range(-1, n + 2), repeat=size)
        ]
        for seq in product((0, 1, 2), repeat=n):
            s = list(seq)
            for cut in cuts:
                assert check_cutpoints(s, cut) == _reference_check_cutpoints(s, cut), (
                    s,
                    cut,
                )


def test_check_matches_reference_on_longer_cuts():
    # Perturbed algorithm cuts, and random cuts from 0 to n, which give
    # many short segments and so several violations in one cut list.
    rng = random.Random(2019)
    for case in range(6000):
        s = [rng.randint(0, 3) for _ in range(rng.randint(0, 16))]
        n = len(s)
        if case % 2:
            inner = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n else []
            cut = [0, *inner, n]
        else:
            cut = compute_cutpoints(s)
            for _ in range(rng.randint(0, 3)):
                if not cut:
                    break
                k = rng.randrange(len(cut))
                if rng.random() < 0.5:
                    cut[k] += rng.choice((-2, -1, 1, 2))
                else:
                    del cut[k]
        assert check_cutpoints(s, cut) == _reference_check_cutpoints(s, cut), (s, cut)
