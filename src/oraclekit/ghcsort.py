"""Bottom-up mergesort over maximal monotonic runs.

The input is split at its monotonic cutpoints, nonincreasing segments
are reversed so every segment is sorted ascending, and segments are
then merged pairwise round by round until one remains. Ties in the
merge take the element from the second input; no stability guarantee
is made beyond that.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Sequence

from .errors import UnsortedInputError
from .monotonic import compute_cutpoints

__all__ = [
    "ghc_sort",
    "is_sorted",
    "merge",
    "merge_round",
    "multiset_equal",
    "split_and_normalize",
]


def split_and_normalize(s: Sequence[int]) -> list[list[int]]:
    """Split ``s`` into maximal monotonic segments, each sorted ascending.

    Segments whose elements were nonincreasing are reversed; strictly
    increasing ones are copied as-is. The concatenation of the result
    is a permutation of ``s``. Empty input gives no segments.
    """
    cut = compute_cutpoints(s)
    segments = []
    for lo, hi in zip(cut, cut[1:]):
        seg = list(s[lo:hi])
        # Direction is committed by the first pair: not strictly
        # increasing means the whole segment is nonincreasing.
        if len(seg) >= 2 and seg[0] >= seg[1]:
            seg.reverse()
        segments.append(seg)
    return segments


def is_sorted(seq: Sequence[int]) -> bool:
    """True when ``seq`` is nondecreasing (vacuously when shorter than 2)."""
    return all(map(operator.le, seq, islice(seq, 1, None)))


def merge(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Merge two sorted sequences into one sorted sequence.

    On equal heads the element of ``b`` is taken first. Any ``Sequence``
    is accepted and never mutated. Each input is checked on every call
    (UnsortedInputError) by comparing it with its builtin-sorted copy:
    on sorted input that sort is one linear run-detection pass.
    """
    for seq, which in ((a, "first"), (b, "second")):
        if list(seq) != sorted(seq):
            raise UnsortedInputError(f"{which} input to merge is not sorted")
    merged: list[int] = []
    take = merged.append
    ia, ib = iter(a), iter(b)
    # Each head y of b is preceded by the heads of a strictly below it.
    for x in ia:
        for y in ib:
            while x < y:
                take(x)
                for x in ia:
                    break
                else:  # a ran out: y and the rest of b follow
                    take(y)
                    merged.extend(ib)
                    return merged
            take(y)
        take(x)  # b ran out: x and the rest of a follow
        break
    merged.extend(ia)
    merged.extend(ib)
    return merged


def merge_round(segments: list[list[int]]) -> list[list[int]]:
    """Merge adjacent segment pairs left to right.

    ``[a, b, c, d, e]`` becomes ``[merge(a, b), merge(c, d), e]``; an
    odd trailing segment is carried over unchanged.
    """
    out = []
    for i in range(0, len(segments) - 1, 2):
        out.append(merge(segments[i], segments[i + 1]))
    if len(segments) % 2:
        out.append(segments[-1])
    return out


def ghc_sort(s: Sequence[int]) -> list[int]:
    """Sort ``s`` by merging its normalized monotonic segments.

    Returns a new list; the input is never mutated. Reaching a single
    segment takes exactly ceil(log2(k)) rounds for k initial segments.
    """
    segments = split_and_normalize(s)
    if not segments:
        return []
    while len(segments) > 1:
        segments = merge_round(segments)
    return segments[0]


def multiset_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when ``a`` and ``b`` contain the same values with the same
    multiplicities, i.e. equal sorted copies (builtin sort, not ``ghc_sort``)."""
    return sorted(a) == sorted(b)
