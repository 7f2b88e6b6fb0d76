"""All nearest smaller values, both directions, via one stack pass.

For each index the *left neighbor* is the closest preceding index
holding a strictly smaller value, so a tie never counts. The *right
neighbor* is its mirror image, ties included: the right answer for s is
the left answer for ``s[::-1]`` with each index y read as n-1-y. The
single-pass algorithm keeps a stack of candidate indices: for each index
x it pops every stacked index y with ``s[y] >= s[x]``, ties too; the
surviving top, if any, is x's neighbor and is only inspected, never
popped. Popping it is a classic off-by-one trap that silently corrupts
later answers, since the survivor must stay available for the indices
after x. x is then pushed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

from .instrument import FlagReport, Tally

__all__ = [
    "AnsvReport",
    "NeighborArray",
    "check_ansv",
    "left_neighbors",
    "oracle_neighbors",
    "right_neighbors",
]


@dataclass(frozen=True)
class NeighborArray:
    """Per-index optional neighbor indices (0-based, None = absent)."""

    neighbors: tuple[Optional[int], ...]
    direction: str  # "left" or "right"


def _scan(s: Sequence[int], order: range) -> tuple[list[Optional[int]], list[int], int]:
    """Run the stack pass over ``order``; return (neighbors, final stack, pops)."""
    out: list[Optional[int]] = [None] * len(s)
    stack: list[int] = []
    for x in order:
        v = s[x]
        while stack and s[stack[-1]] >= v:
            stack.pop()
        if stack:
            out[x] = stack[-1]
        stack.append(x)
    return out, stack, len(order) - len(stack)  # every index is pushed once


def left_neighbors(s: Sequence[int], tally: Optional[Tally] = None) -> NeighborArray:
    """Nearest strictly-smaller value to the left of each index.

    Single left-to-right pass; total pops are at most n (each index is
    pushed once), counted into ``tally.pops`` when a tally is given.
    """
    out, _, pops = _scan(s, range(len(s)))
    if tally is not None:
        tally.pops += pops
    return NeighborArray(tuple(out), "left")


def right_neighbors(s: Sequence[int], tally: Optional[Tally] = None) -> NeighborArray:
    """Nearest strictly-smaller value to the right of each index.

    Mirror of ``left_neighbors``, scanning from the last index toward
    the first.
    """
    out, _, pops = _scan(s, range(len(s) - 1, -1, -1))
    if tally is not None:
        tally.pops += pops
    return NeighborArray(tuple(out), "right")


def _mirrored(nb: Sequence[Optional[int]]) -> tuple[Optional[int], ...]:
    """The answer for ``s[::-1]`` from ``nb`` for s: entry i is n-1-y for entry n-1-i's y."""
    m = len(nb) - 1
    return tuple(None if y is None else m - y for y in reversed(nb))


def oracle_neighbors(s: Sequence[int], direction: str) -> NeighborArray:
    """Reference answer by direct quadratic search from the definition.

    left: neighbors[i] = max{ y < i : s[y] < s[i] } or absent;
    right: the ``_mirrored`` left answer of ``s[::-1]``, min{ y > i : s[y] < s[i] }.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    if direction == "right":
        s = s[::-1]
    out: list[Optional[int]] = [None] * len(s)
    for i, vi in enumerate(s):
        for y in range(i - 1, -1, -1):
            if s[y] < vi:
                out[i] = y
                break
    return NeighborArray(tuple(out) if direction == "left" else _mirrored(out), direction)


@dataclass(frozen=True)
class AnsvReport(FlagReport):
    """Outcome of the three neighbor checks."""

    index_ok: bool
    value_ok: bool
    smallest_ok: bool


def check_ansv(s: Sequence[int], a: NeighborArray) -> AnsvReport:
    """Evaluate the three neighbor properties of a left or right array.

    index_ok: every present neighbor is a valid index on its owner's side.
    value_ok: every present neighbor holds a strictly smaller value.
    smallest_ok: no index between the neighbor (exclusive) and the owner
    holds a smaller value. Another direction, a wrong length or an entry
    that is neither None nor an ``int`` (``instrument.is_index``'s rule)
    fails all three flags; an out-of-range ``int`` fails only the flags it
    breaks. A right array is then checked as ``_mirrored`` on ``s[::-1]``.

    smallest_ok walks from ``i - 1`` down to the neighbor (or to the start
    when it is absent or negative), jumping from j to ``nb[j]`` whenever
    that lies below j. The walk runs only while smallest_ok has held for
    every earlier index, so everything strictly between ``nb[j]`` and j is
    at least ``s[j]``, which is at least ``s[i]``. The walk takes no more
    steps than a direct scan of the gap; on a correct array it steps over
    exactly the entries that the stack pass pops, at most n in total.
    """
    n = len(s)
    nb = a.neighbors
    if a.direction not in ("left", "right") or len(nb) != n or not all(
        map(isinstance, nb, repeat((int, type(None))))
    ):
        return AnsvReport(index_ok=False, value_ok=False, smallest_ok=False)
    if a.direction == "right":
        s, nb = s[::-1], _mirrored(nb)

    index_ok = value_ok = smallest_ok = True
    for i, y in enumerate(nb):
        vi = s[i]
        if y is None:
            stop = -1
        else:
            if not 0 <= y < i:
                index_ok = False
            if not (0 <= y < n and s[y] < vi):
                value_ok = False
            stop = y if y > -1 else -1  # a comparison: max() per element is slow
        j = i - 1
        while j > stop and smallest_ok:
            if s[j] < vi:
                smallest_ok = False
            z = nb[j]
            if z is None:
                j = -1
            elif z < j:
                j = z
            else:
                j -= 1

    return AnsvReport(index_ok=index_ok, value_ok=value_ok, smallest_ok=smallest_ok)
