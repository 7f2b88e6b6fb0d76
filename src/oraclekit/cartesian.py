"""Cartesian tree construction by one nearest-smaller-value stack pass.

The Cartesian tree of a distinct-valued sequence is the unique binary
tree with one node per index whose in-order traversal is the sequence
itself and whose values satisfy the min-heap property. Each index hangs
off whichever of its two nearest smaller values is larger (the closer
floor), indices with one neighbor hang off that one, and the index with
neither is the root; one nearest-smaller-value stack pass links them all.

The tree is stored as parallel parent/left_child/right_child index
arrays; a child smaller than its parent index is the left child, which
is forced by the in-order property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

# Unused here, but perfbench/tracing.py wraps these two names in this module.
from .ansv import left_neighbors, right_neighbors  # noqa: F401
from .errors import DuplicateValuesError, MalformedTreeError
from .instrument import FlagReport, Tally, is_index

__all__ = [
    "CartesianTree",
    "TreeReport",
    "build_tree",
    "check_tree",
    "in_order",
    "oracle_tree",
]


@dataclass(frozen=True)
class CartesianTree:
    """Binary tree over sequence indices as parent/child arrays."""

    parent: tuple[Optional[int], ...]
    left_child: tuple[Optional[int], ...]
    right_child: tuple[Optional[int], ...]
    root: Optional[int]


def _require_distinct(s: Sequence[int]) -> None:
    if len(set(s)) != len(s):
        raise DuplicateValuesError("sequence values must be distinct")


def build_tree(s: Sequence[int], tally: Optional[Tally] = None) -> CartesianTree:
    """Build the Cartesian tree of a distinct-valued sequence.

    Parent rule per index x: the left neighbor if x has no right
    neighbor, the right neighbor if it has no left one, the neighbor
    with the LARGER value when both exist, and root when neither does.
    One left-to-right stack pass applies it, because x pops y exactly
    when x is y's right neighbor, and the entry beneath y is y's left
    neighbor: x first hangs off the top that survives its pops, and the
    last entry x pops, the one whose left neighbor is smaller than x,
    moves under x. The bottom entry left is the root. O(n), at most n
    pops (counted into ``tally.pops`` when given).
    """
    _require_distinct(s)
    n = len(s)
    parent: list[Optional[int]] = [None] * n
    left_child: list[Optional[int]] = [None] * n
    right_child: list[Optional[int]] = [None] * n
    stack: list[int] = []
    for x in range(n):
        v = s[x]
        last = None
        while stack and s[stack[-1]] > v:
            last = stack.pop()
        if last is not None:
            left_child[x] = last
            parent[last] = x
        if stack:
            right_child[stack[-1]] = x
            parent[x] = stack[-1]
        stack.append(x)
    if tally is not None:
        tally.pops += n - len(stack)  # every index is pushed once
    root = stack[0] if stack else None
    return CartesianTree(tuple(parent), tuple(left_child), tuple(right_child), root)


def in_order(t: CartesianTree) -> list[int]:
    """Symmetric traversal emitting node indices.

    Iterative so degenerate chains cannot overflow the call stack.
    Raises MalformedTreeError on arrays of unequal length, cycles,
    non-integer or out-of-range links, or unreachable nodes (found by
    visit counting).
    """
    n = len(t.parent)
    if len(t.left_child) != n or len(t.right_child) != n:
        raise MalformedTreeError("parent and child arrays differ in length")
    if n == 0:
        if t.root is not None:
            raise MalformedTreeError("empty tree cannot have a root")
        return []
    root = t.root
    if not is_index(root, n):
        raise MalformedTreeError("missing or out-of-range root")
    order: list[int] = []
    stack: list[int] = []
    node: Optional[int] = root
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            if len(stack) > n:
                raise MalformedTreeError("cycle through left children")
            nxt = t.left_child[node]
            if nxt is not None and not is_index(nxt, n):
                raise MalformedTreeError(f"left child of {node} out of range")
            node = nxt
        node = stack.pop()
        order.append(node)
        if len(order) > n:
            raise MalformedTreeError("cycle: more visits than nodes")
        nxt = t.right_child[node]
        if nxt is not None and not is_index(nxt, n):
            raise MalformedTreeError(f"right child of {node} out of range")
        node = nxt
    if len(order) != n or len(set(order)) != n:
        raise MalformedTreeError("traversal did not visit every node exactly once")
    return order


@dataclass(frozen=True)
class TreeReport(FlagReport):
    """Outcome of the three Cartesian-tree checks."""

    binary_ok: bool
    heap_ok: bool
    traversal_ok: bool


def _certified(s: Sequence[int], t: CartesianTree) -> bool:
    """True when one in-order walk proves all three flags (see check_tree);
    False means only "not proven". Allocates nothing but its stack."""
    n, x = len(s), t.root
    parent, left, right = t.parent, t.left_child, t.right_child
    if not len(parent) == len(left) == len(right) == n:
        return False
    if n == 0 or x is None:
        return n == 0 and x is None
    if type(x) is not int or not 0 <= x < n or parent[x] is not None:
        return False
    stack, expected = [x], 0
    while True:
        c = left[x]
        if c is None:  # pop until a node with a right child
            while True:
                x = stack.pop()
                if x != expected:
                    return False
                expected += 1
                c = right[x]
                if c is not None:
                    break
                if not stack:
                    return expected == n
        p = parent[c] if type(c) is int and 0 <= c < n else None
        if type(p) is not int or p != x or not s[c] > s[x]:
            return False
        stack.append(c)
        x = c


def check_tree(s: Sequence[int], t: CartesianTree) -> TreeReport:
    """Evaluate the binary / heap / traversal properties of ``t``.

    binary_ok: well-formed binary tree with one node per index;
    heap_ok: every non-root value exceeds its parent's value;
    traversal_ok: in-order traversal is 0, 1, ..., n-1. Malformed trees,
    non-integer indices included, fail flags instead of raising.

    Fast path, a certifying check (McConnell, Mehlhorn, Naher and
    Schweitzer, 2011): an in-order walk from a parentless root that pops
    0, 1, ..., n-1 and follows links only to in-range ``int`` children
    whose parent entry is the node it came from and whose value is larger
    ends (values rise), pushes n nodes through n-1 links to distinct nodes
    and reads every child slot, so all three flags hold. Otherwise the
    check below runs unchanged.

    binary_ok needs one traversal and one pass over the parent links. A
    traversal from the root that visits each of the n nodes exactly once
    follows exactly n-1 child links, none of them into the root. The pass
    asks every non-root x for a parent p whose child slot on x's side
    holds x; the root cannot meet that with a parent, as no child link
    leads to it. Those n-1 slots are distinct, so they are all the child
    links: the child arrays are exactly the inverse of the parent array,
    which is therefore acyclic with the root as its only parentless node.
    """
    if _certified(s, t):
        return TreeReport(binary_ok=True, heap_ok=True, traversal_ok=True)
    n = len(s)
    try:
        order: Optional[list[int]] = in_order(t)
    except MalformedTreeError:
        order = None
    traversal_ok = order == list(range(n))

    left, right = t.left_child, t.right_child
    binary_ok = (
        order is not None
        and len(t.parent) == n
        and all(
            x == t.root
            if p is None
            else is_index(p, n) and (left if x < p else right)[p] == x
            for x, p in enumerate(t.parent)
        )
    )

    heap_ok = len(t.parent) == n
    if heap_ok:
        for x in range(n):
            p = t.parent[x]
            if p is None:
                continue
            if not is_index(p, n) or not s[x] > s[p]:
                heap_ok = False
                break

    return TreeReport(binary_ok=binary_ok, heap_ok=heap_ok, traversal_ok=traversal_ok)


def oracle_tree(s: Sequence[int]) -> CartesianTree:
    """Reference tree by minimum splitting.

    The minimum of a range is its subtree root; left and right
    sub-ranges build the subtrees. Pending ranges sit on an explicit
    stack, so no input size hits the recursion limit. Independent of the
    stack pass in build_tree; equals build_tree on every distinct-valued
    input because the Cartesian tree is unique.
    """
    _require_distinct(s)
    parent: list[Optional[int]] = [None] * len(s)
    left_child: list[Optional[int]] = [None] * len(s)
    right_child: list[Optional[int]] = [None] * len(s)
    # Pending (lo, hi, parent of the range's minimum; None for the root).
    stack: list[tuple[int, int, Optional[int]]] = [(0, len(s), None)]
    while stack:
        lo, hi, above = stack.pop()
        if lo < hi:
            m = lo
            for i in range(lo + 1, hi):
                if s[i] < s[m]:
                    m = i
            parent[m] = above
            if above is not None:
                (left_child if m < above else right_child)[above] = m
            stack.append((lo, m, m))
            stack.append((m + 1, hi, m))
    root = min(range(len(s)), key=s.__getitem__, default=None)
    return CartesianTree(tuple(parent), tuple(left_child), tuple(right_child), root)
