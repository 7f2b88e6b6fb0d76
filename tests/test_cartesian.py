import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclekit.cartesian import (
    CartesianTree,
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
