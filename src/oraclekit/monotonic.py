"""Maximal monotonic cutpoints of integer sequences.

A segment of a sequence is *monotonic* when its elements are strictly
increasing or nonincreasing (decreasing or equal). A cutpoint list
``cut = [c0, ..., c_{m-1}]`` splits ``s`` into segments
``s[c_k : c_{k+1}]``; the interesting cutpoints are the *maximal* ones,
where no segment can be extended to the right by one element and stay
monotonic.

Note the asymmetry: maximality is right-handed only. Two-sided
maximality is unsatisfiable in general, e.g. ``[1, 2, 2]`` cuts as
``[1, 2] | [2]`` and extending the second segment to the left gives
``[2, 2]``, which is monotonic again.

Also note that segment directions do not alternate: ``[6, 3, 4, 2, 5,
3, 7]`` splits into four segments that are all nonincreasing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

from .errors import BoundsError
from .instrument import FlagReport, Tally

__all__ = [
    "CutReport",
    "check_cutpoints",
    "compute_cutpoints",
    "is_monotonic",
    "oracle_cutpoints",
]


def is_monotonic(s: Sequence[int], lo: int, hi: int) -> bool:
    """Return True when the segment ``s[lo:hi]`` is monotonic.

    Monotonic means strictly increasing or nonincreasing. Segments of
    length <= 1 are trivially monotonic. Raises BoundsError unless
    ``0 <= lo <= hi <= len(s)``.
    """
    if lo < 0 or hi > len(s) or lo > hi:
        raise BoundsError(
            f"segment [{lo}, {hi}) out of range for sequence of length {len(s)}"
        )
    if hi - lo <= 1:
        return True
    increasing = True
    for i in range(lo + 1, hi):
        if s[i - 1] >= s[i]:
            increasing = False
            break
    if increasing:
        return True
    for i in range(lo + 1, hi):
        if s[i - 1] < s[i]:
            return False
    return True


def compute_cutpoints(s: Sequence[int], tally: Optional[Tally] = None) -> list[int]:
    """Compute the maximal monotonic cutpoints of ``s`` in one scan.

    The direction of each segment is committed by its first pair of
    elements; the segment then extends while consecutive pairs keep
    matching that direction. Performs at most 2n element comparisons
    (counted into ``tally.comparisons`` when a tally is given).
    """
    n = len(s)
    cut = [0]
    comparisons = 0
    x, y = 0, 1
    while y < n:
        comparisons += 1
        increasing = s[x] < s[y]
        while y < n:
            comparisons += 1
            if (s[y - 1] < s[y]) != increasing:
                break
            y += 1
        cut.append(y)
        x = y
        y = x + 1
    if x < n:
        cut.append(n)
    if tally is not None:
        tally.comparisons += comparisons
    return cut


def oracle_cutpoints(s: Sequence[int]) -> list[int]:
    """Reference cutpoints: repeatedly emit the longest monotonic prefix.

    Greedy and deliberately naive: from position ``p`` it extends the
    candidate segment one element at a time, re-asking ``is_monotonic``
    each step. Shares no scanning logic with ``compute_cutpoints``.
    """
    n = len(s)
    cut = [0]
    p = 0
    while p < n:
        q = p + 1
        while q < n and is_monotonic(s, p, q + 1):
            q += 1
        cut.append(q)
        p = q
    return cut


@dataclass(frozen=True)
class CutReport(FlagReport):
    """Outcome of checking a cutpoint list against a sequence.

    One bool flag per property; ``first_violation`` names the first
    failing flag (in field order) and the cut/segment index where it was
    detected, or None when everything holds.
    """

    non_empty: bool
    begin_to_end: bool
    within_bounds: bool  # strictly increasing, all within [0, len(s)]
    monotonic: bool
    right_maximal: bool
    first_violation: Optional[tuple[str, int]] = None


def check_cutpoints(s: Sequence[int], cut: Sequence[int]) -> CutReport:
    """Evaluate the five cutpoint properties of ``cut`` for ``s``.

    Every flag is evaluated independently so a report on garbage input
    still says which properties happen to hold. ``right_maximal`` is
    only granted when ``monotonic`` holds: it asserts that each segment
    ending before ``n`` stops monotonicity when extended right by one.
    """
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

    # One scan over the segments, reading directions from up[i] = s[i] < s[i+1].
    up = list(map(operator.lt, s, islice(s, 1, None)))
    broken_at = extendable_at = None
    for k in range(m - 1):
        lo, hi = cut[k], cut[k + 1]
        # s[lo:hi] is monotonic iff up[lo:hi-1] is all true or all false.
        d = hi - lo
        if (not 0 <= lo <= hi <= n or d == 3 and up[lo] != up[lo + 1]
                or d > 3 and len(set(up[lo : hi - 1])) > 1):
            broken_at = k
            break
        # s[lo:hi+1] is monotonic too unless s[lo:hi] has a direction (two
        # or more elements) that the next pair, up[hi-1], breaks.
        extends = hi < n and (d < 2 or up[hi - 1] == up[hi - 2])
        if extends and extendable_at is None:
            extendable_at = k
    monotonic = broken_at is None
    right_maximal = monotonic and extendable_at is None

    first_violation = None
    if not non_empty:
        first_violation = ("non_empty", 0)
    elif not begin_to_end:
        first_violation = ("begin_to_end", 0)
    elif not within_bounds:
        first_violation = ("within_bounds", bounds_at)
    elif not monotonic:
        first_violation = ("monotonic", broken_at)
    elif not right_maximal:
        first_violation = ("right_maximal", extendable_at)

    return CutReport(
        non_empty=non_empty,
        begin_to_end=begin_to_end,
        within_bounds=within_bounds,
        monotonic=monotonic,
        right_maximal=right_maximal,
        first_violation=first_violation,
    )
