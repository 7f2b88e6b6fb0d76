import sys
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclekit.cartesian import (
    CartesianTree,
    TreeReport,
    build_tree,
    check_tree,
    in_order,
    oracle_tree,
)
from oraclekit.errors import DuplicateValuesError, MalformedTreeError

PINNED_SEQ = [4, 7, 8, 1, 2, 3, 9, 5, 6]


def test_pinned_parent_array():
    t = build_tree(PINNED_SEQ)
    assert t.parent == (3, 0, 1, None, 3, 4, 7, 5, 7)
    assert t.root == 3


def test_pinned_tree_checks_clean():
    t = build_tree(PINNED_SEQ)
    assert in_order(t) == list(range(9))
    assert check_tree(PINNED_SEQ, t).all_ok()


def test_child_links_invert_parents():
    t = build_tree(PINNED_SEQ)
    for x, p in enumerate(t.parent):
        if p is None:
            continue
        assert (t.left_child[p] == x) or (t.right_child[p] == x)
        assert (x < p) == (t.left_child[p] == x)


def test_edge_shapes():
    t = build_tree([])
    assert t.parent == () and t.root is None
    assert in_order(t) == []
    t = build_tree([42])
    assert t.parent == (None,) and t.root == 0
    assert check_tree([42], t).all_ok()


def test_duplicates_rejected():
    with pytest.raises(DuplicateValuesError):
        build_tree([1, 2, 1])
    with pytest.raises(DuplicateValuesError):
        oracle_tree([3, 3])


def test_oracle_handles_inputs_beyond_the_recursion_limit():
    s = list(range(sys.getrecursionlimit() + 500))  # a chain of right children
    assert oracle_tree(s) == build_tree(s)


def test_matches_oracle_all_small_permutations():
    for n in range(7):
        for perm in permutations(range(1, n + 1)):
            s = list(perm)
            assert build_tree(s) == oracle_tree(s), s


@settings(max_examples=200)
@given(st.lists(st.integers(-10**6, 10**6), unique=True, max_size=80))
def test_matches_oracle_random_distinct(s):
    t = build_tree(s)
    assert t == oracle_tree(s)
    assert check_tree(s, t).all_ok()


def test_heap_check_catches_inverted_link():
    s = [2, 1, 3]
    good = build_tree(s)  # root 1, children 0 and 2
    # right chain 0 -> 1 -> 2 keeps in-order intact but puts value 1
    # under value 2
    chain = CartesianTree(
        parent=(None, 0, 1),
        left_child=(None, None, None),
        right_child=(1, 2, None),
        root=0,
    )
    assert check_tree(s, good).all_ok()
    r = check_tree(s, chain)
    assert r.binary_ok and r.traversal_ok and not r.heap_ok


def test_binary_check_catches_inconsistent_links():
    s = [2, 1, 3]
    # parent says 0 hangs under 1, but 1 claims no left child
    broken = CartesianTree(
        parent=(1, None, 1),
        left_child=(None, None, None),
        right_child=(None, 2, None),
        root=1,
    )
    assert not check_tree(s, broken).binary_ok
    # child arrays shorter than the parent array: flags, not IndexError
    short = CartesianTree((None, 1), (), (), 0)
    with pytest.raises(MalformedTreeError):
        in_order(short)
    r = check_tree([1, 2], short)
    assert not (r.binary_ok or r.heap_ok or r.traversal_ok)


def test_traversal_rejects_cycle():
    looped = CartesianTree(
        parent=(1, None, 1),
        left_child=(0, 0, None),  # node 0 is its own left child
        right_child=(None, 2, None),
        root=1,
    )
    with pytest.raises(MalformedTreeError):
        in_order(looped)
    r = check_tree([2, 1, 3], looped)
    assert not r.binary_ok and not r.traversal_ok


def test_traversal_rejects_bad_root():
    with pytest.raises(MalformedTreeError):
        in_order(CartesianTree((None,), (None,), (None,), root=5))
    with pytest.raises(MalformedTreeError):
        in_order(CartesianTree((None,), (None,), (None,), root=None))


def test_consistent_links_off_the_root_cycle_are_rejected():
    # Child and parent links agree, but 1 and 2 only reach each other.
    t = CartesianTree((None, 2, 1), (None, None, 1), (None, 2, None), 0)
    r = check_tree([0, 1, 2], t)
    assert not r.binary_ok and not r.traversal_ok


def _reference_structure_ok(n, t):
    """The three-pass structure check, kept as the reference."""
    if not (len(t.parent) == len(t.left_child) == len(t.right_child) == n):
        return False
    if n == 0:
        return t.root is None
    roots = [x for x in range(n) if t.parent[x] is None]
    if len(roots) != 1 or t.root != roots[0]:
        return False
    for x in range(n):
        p = t.parent[x]
        if p is None:
            continue
        if not 0 <= p < n or p == x:
            return False
        if x < p and t.left_child[p] != x:
            return False
        if x > p and t.right_child[p] != x:
            return False
    for p in range(n):
        for child, side in ((t.left_child[p], -1), (t.right_child[p], 1)):
            if child is None:
                continue
            if not 0 <= child < n or t.parent[child] != p:
                return False
            if (child - p) * side < 0:
                return False
    state = [0] * n  # 0 unknown, 1 on current path, 2 reaches root
    for x in range(n):
        path = []
        y = x
        while y is not None and state[y] == 0:
            state[y] = 1
            path.append(y)
            y = t.parent[y]
        ok = y is None or state[y] == 2
        for z in path:
            state[z] = 2 if ok else 1
        if not ok:
            return False
    return True


def _reference_check_tree(s, t):
    n = len(s)
    heap_ok = len(t.parent) == n
    if heap_ok:
        for x in range(n):
            p = t.parent[x]
            if p is not None and (not 0 <= p < n or not s[x] > s[p]):
                heap_ok = False
                break
    try:
        traversal_ok = in_order(t) == list(range(n))
    except MalformedTreeError:
        traversal_ok = False
    return TreeReport(_reference_structure_ok(n, t), heap_ok, traversal_ok)


def _child_arrays(parent, last_writer):
    n = len(parent)
    left, right = [None] * n, [None] * n
    for x, p in enumerate(parent):
        if p is not None and 0 <= p < n:
            side = left if x < p else right
            if last_writer or side[p] is None:
                side[p] = x
    return tuple(left), tuple(right)


def test_check_matches_reference_on_every_small_parent_array():
    # Parent entries range over None, -1, 0..n-1 and n. Child arrays come
    # from the same parent array for n = 4; for n <= 3 they come from
    # every parent array, also with left and right swapped, so that child
    # links can disagree with parent links and sit on the wrong side.
    for n in range(5):
        sequences = [list(range(n)), list(range(n + 1)), list(range(n, 0, -1))]
        sequences += [[1, 0, 3, 2][:n]] if n else []
        parents = list(product((None, -1, *range(n), n), repeat=n))
        every = {_child_arrays(p, lw) for p in parents for lw in (False, True)}
        every |= {(right, left) for left, right in every}
        for parent in parents:
            own = {_child_arrays(parent, lw) for lw in (False, True)}
            for left, right in every if n <= 3 else own:
                for root in (None, -1, *range(n), n):
                    t = CartesianTree(parent, left, right, root)
                    for s in sequences if (left, right) in own else sequences[:2]:
                        assert check_tree(s, t) == _reference_check_tree(s, t), (s, t)
