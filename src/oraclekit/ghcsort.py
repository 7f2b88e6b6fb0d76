"""Bottom-up mergesort over maximal monotonic runs.

The input is cut at its monotonic cutpoints, nonincreasing segments
are reversed so every segment is sorted ascending, and each segment is
merged in as soon as it is cut, the way a binary counter carries. For k
segments this builds the tree that pairwise merging of adjacent runs
(an odd last run carried up) would build: depth ceil(log2(k)), the same
k-1 merges of the same pairs, and at most floor(log2(k))+1 runs alive
at once. Merge ties take the second input's element first and
nonincreasing segments are reversed, so equal values come out in
reverse input order: ``ghc_sort(s)`` is ``sorted(reversed(s))``.

Checks sit at the boundary: ``merge`` checks both inputs, ``ghc_sort``
each segment once as it is cut; both merge through the unchecked kernel.
"""

from __future__ import annotations

from typing import Sequence

from .errors import UnsortedInputError
from .monotonic import compute_cutpoints

__all__ = ["ghc_sort", "is_sorted", "merge", "multiset_equal", "oracle_merge"]


def is_sorted(seq: Sequence[int]) -> bool:
    """True when ``seq`` is nondecreasing (vacuously when shorter than 2).

    Compares ``seq`` with its builtin-sorted copy: on sorted input that
    sort is one linear run-detection pass.
    """
    return list(seq) == sorted(seq)


def merge(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Merge two sorted sequences into one sorted sequence.

    Any ``Sequence`` is accepted and never mutated. Each input is checked
    with ``is_sorted`` on every call, the first first (UnsortedInputError);
    then the module's ``_merge_runs`` merges them.
    """
    for seq, which in ((a, "first"), (b, "second")):
        if not is_sorted(seq):
            raise UnsortedInputError(f"{which} input to merge is not sorted")
    return _merge_runs(a, b)


def _merge_runs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Unchecked merge of sorted runs: timsort merges ``b + a`` in C,
    galloping, with a buffer of at most min(len(a), len(b)) pointers, and
    its stability puts ``b``'s ties first, as ``oracle_merge`` does."""
    merged = [*b, *a]
    merged.sort()
    return merged


def oracle_merge(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Reference ``merge`` by one two-iterator walk, independent of builtin
    sort: ties take the element of ``b`` first. Inputs are not checked."""
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


def ghc_sort(s: Sequence[int]) -> list[int]:
    """Sort ``s`` by merging its normalized monotonic segments.

    Returns a new list; the input is never mutated. The merge tree over
    k segments has depth ceil(log2(k)) and pairs the same runs as
    merging adjacent pairs level by level, with k-1 calls of ``_merge_runs``.
    A merged segment left unsorted by its cut raises UnsortedInputError.
    """
    cut = compute_cutpoints(s)
    runs: list[list[int]] = []  # merged blocks of 2**i segments, largest first
    for k, (lo, hi) in enumerate(zip(cut, cut[1:]), 1):
        run = list(s[lo:hi])
        # Direction is committed by the first pair: not strictly
        # increasing means the whole segment is nonincreasing.
        if len(run) >= 2 and run[0] >= run[1]:
            run.reverse()
        # Two elements are sorted once normalized; a lone segment is never merged.
        if len(run) > 2 and len(cut) > 2 and not is_sorted(run):
            raise UnsortedInputError(f"segment s[{lo}:{hi}] is not monotonic")
        # Segment k completes one block per trailing zero bit of k.
        while not k & 1:
            run = _merge_runs(runs.pop(), run)
            k >>= 1
        runs.append(run)
    run = runs.pop() if runs else []
    while runs:
        run = _merge_runs(runs.pop(), run)
    return run


def multiset_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when ``a`` and ``b`` contain the same values with the same
    multiplicities, i.e. equal sorted copies (builtin sort, not ``ghc_sort``)."""
    return sorted(a) == sorted(b)
