"""The named property registry.

Every claim the package makes about its algorithms lives here under a
stable dotted name, so test reports, the CLI, and regression pins all
refer to the same identifiers. A check takes a generated input (or
None for fixed properties that carry their own inputs) and returns
None on success or a failure message. A flag property checks one flag
of a checker report; a report's flags are its bool fields, in field order
(``instrument.FlagReport``), which ``cutpoints`` and ``cartesian`` print.

Checks call into the algorithm modules through their module objects,
so a broken variant patched in fails the properties that reach it, as
the mutation smoke tests rely on: ``ghcsort.merge`` reaches the two c1b
merge properties, its kernel ``ghcsort._merge_runs`` every c1b property.
Properties are pure functions of the case object: each shared runner
remembers its result for the last case object, by identity, so the
properties of a family compute and check one case's answer once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from . import ansv, cartesian, ghcsort, monotonic, parallel, spmv

__all__ = ["PARALLEL_REPEATS", "PROPERTY_NAMES", "Property", "REGISTRY"]

# Repetitions per instance and policy when racing real threads against
# the sequential product. One schedule proves nothing; a hundred give
# the OS scheduler room to misbehave.
PARALLEL_REPEATS = 100


@dataclass(frozen=True)
class Property:
    name: str
    kind: str  # "sequence", "coo", or "fixed"
    check: Callable[[object], Optional[str]]
    summary: str


def _per_case(run: Callable) -> Callable:
    """Remember ``run``'s result for the last case object, by identity; the
    pair is replaced whole, so a concurrent caller at worst recomputes."""
    last = (object(), None)  # holding the case keeps its id from being reused

    def memo(s):
        nonlocal last
        case, result = last
        if case is not s:
            result = run(s)
            last = (s, result)
        return result

    return memo


def _flag(run: Callable, flag: str) -> Callable:
    """Check one flag of the report that ``run(s)`` returns together with a
    thunk describing the answer; the message is built only on failure."""

    def check(s):
        report, describe, _answer = run(s)
        if getattr(report, flag):
            return None
        return f"{flag} violated by {describe()}"

    return check


@_per_case
def _cutpoints(s):
    cut = monotonic.compute_cutpoints(s)
    report = monotonic.check_cutpoints(s, cut)
    return report, lambda: f"cut {cut}; first violation {report.first_violation}", cut


def _cutpoints_oracle_eq(s):
    got = _cutpoints(s)[2]
    want = monotonic.oracle_cutpoints(s)
    if got == want:
        return None
    return f"cutpoints {got} != greedy oracle {want}"


def _sorted_halves(s):
    half = len(s) // 2
    return sorted(s[:half]), sorted(s[half:])


def _merge_sorted(s):
    a, b = _sorted_halves(s)
    merged = ghcsort.merge(a, b)
    if not ghcsort.is_sorted(merged):
        return f"merge({a}, {b}) is not sorted: {merged}"
    if not ghcsort.multiset_equal(merged, a + b):
        return f"merge({a}, {b}) lost or invented elements: {merged}"
    return None


def _merge_oracle_eq(s):
    a, b = _sorted_halves(s)
    got, want = ghcsort.merge(a, b), ghcsort.oracle_merge(a, b)
    if got == want:
        return None
    return f"merge({a}, {b}) = {got} != two-iterator oracle {want}"


_sorted_output = _per_case(lambda s: ghcsort.ghc_sort(s))


def _sort_sorted(s):
    out = _sorted_output(s)
    if ghcsort.is_sorted(out):
        return None
    return f"ghc_sort output is not nondecreasing: {out}"


def _sort_permutation(s):
    out = _sorted_output(s)
    if ghcsort.multiset_equal(out, s):
        return None
    return f"ghc_sort output is not a permutation of the input: {out}"


@_per_case
def _left_neighbors(s):
    arr = ansv.left_neighbors(s)
    return ansv.check_ansv(s, arr), lambda: f"left neighbors {arr.neighbors}", arr


def _ansv_oracle_eq(s):
    for side in ("left", "right"):
        arr = _left_neighbors(s)[2] if side == "left" else ansv.right_neighbors(s)
        got, want = arr.neighbors, ansv.oracle_neighbors(s, side).neighbors
        if got != want:
            return f"{side} neighbors {got} != oracle {want}"
    return None


@_per_case
def _tree(s):
    t = list(dict.fromkeys(s))  # first occurrences, in order
    tree = cartesian.build_tree(t)
    report = cartesian.check_tree(t, tree)
    return report, lambda: f"parent array {tree.parent} (input deduped to {t})", (t, tree)


def _tree_oracle_eq(s):
    t, got = _tree(s)[2]
    want = cartesian.oracle_tree(t)
    if got == want:
        return None
    return (
        f"tree parents {got.parent} != min-split oracle {want.parent}"
        f" (input deduped to {t})"
    )


def _seq_correct(value):
    x, m = value
    got = spmv.multiply_seq(x, m)
    want = spmv.oracle_multiply_dense(x, spmv.to_dense(m))
    if got == want:
        return None
    return f"multiply_seq {got} != dense oracle {want}"


_POLICIES = (
    ("per_element", parallel.AllocationPolicy.per_element()),
    ("chunks:2", parallel.AllocationPolicy.static_chunks(2)),
    ("chunks:4", parallel.AllocationPolicy.static_chunks(4)),
    ("steal:4", parallel.AllocationPolicy.dynamic_stealing(4)),
)


def _parallel_eq_seq(value):
    x, m = value
    want = spmv.multiply_seq(x, m)
    for label, policy in _POLICIES:
        for rep in range(PARALLEL_REPEATS):
            got = parallel.multiply_parallel(x, m, policy)
            if got != want:
                return f"policy {label} rep {rep}: {got} != sequential {want}"
    return None


def _no_concurrency_issues(_value):
    """Exhaust every small model under both safe synchronization modes.

    Matrices up to 2x2, every subset of their cells, entry and vector
    values in {1, 2}, 1 to 3 workers: 2,304 models. Each model's
    full interleaving space must reach exactly the sequential result
    and never deadlock.
    """
    for rows, cols in product((1, 2), repeat=2):
        cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
        for mask in range(1 << len(cells)):
            chosen = [cells[i] for i in range(len(cells)) if mask >> i & 1]
            for values in product((1, 2), repeat=len(chosen)):
                triplets = [(r, c, v) for (r, c), v in zip(chosen, values)]
                m = spmv.coo_from_triplets(rows, cols, triplets)
                for x in product((1, 2), repeat=rows):
                    for workers in (1, 2, 3):
                        for sync in ("atomic_rmw", "lock_per_cell"):
                            ts = parallel.build_model(list(x), m, workers, sync)
                            rep = parallel.explore(ts)
                            tag = (
                                f"model rows={rows} cols={cols}"
                                f" triplets={triplets} x={list(x)}"
                                f" workers={workers} sync={sync}"
                            )
                            if rep.deadlock_found:
                                return f"{tag}: deadlock reachable"
                            if not rep.matches_sequential:
                                outs = sorted(rep.terminal_outputs)
                                return f"{tag}: terminal outputs {outs} != sequential"
    return None


def _race_witness(_value):
    """The unsynchronized two-step update must exhibit lost updates.

    Two workers add 1 and 2 into the same cell via read-then-write.
    The explorer must reach the correct total 3 and both lost-update
    outcomes 1 and 2.
    """
    m = spmv.coo_from_triplets(2, 1, [(1, 1, 1), (2, 1, 2)])
    ts = parallel.build_model([1, 1], m, workers=2, sync_mode="none_split_rw")
    rep = parallel.explore(ts)
    outs = rep.terminal_outputs
    missing = [t for t in ((1,), (2,), (3,)) if t not in outs]
    if missing:
        return f"terminal outputs {sorted(outs)} missing {missing}"
    return None


# One (name, kind, check, summary) row per property, in ``check --list`` order.
REGISTRY = {
    name: Property(name, kind, check, summary)
    for name, kind, check, summary in (
        ("c1a.nonempty", "sequence", _flag(_cutpoints, "non_empty"),
         "cutpoint list is never empty"),
        ("c1a.begin_end", "sequence", _flag(_cutpoints, "begin_to_end"),
         "cutpoints start at 0 and end at len(s)"),
        ("c1a.bounds", "sequence", _flag(_cutpoints, "within_bounds"),
         "cutpoints are strictly increasing within [0, len(s)]"),
        ("c1a.monotonic", "sequence", _flag(_cutpoints, "monotonic"),
         "every delimited segment is monotonic"),
        ("c1a.maximal", "sequence", _flag(_cutpoints, "right_maximal"),
         "no segment can be extended one element to the right"),
        ("c1a.oracle_eq", "sequence", _cutpoints_oracle_eq,
         "one-scan cutpoints equal the greedy prefix oracle"),
        ("c1b.merge_sorted", "sequence", _merge_sorted,
         "merging two sorted halves is sorted and loses nothing"),
        ("c1b.merge_oracle_eq", "sequence", _merge_oracle_eq,
         "merging two sorted halves equals the two-iterator oracle"),
        ("c1b.sorted", "sequence", _sort_sorted,
         "ghc_sort output is nondecreasing"),
        ("c1b.permutation", "sequence", _sort_permutation,
         "ghc_sort output is a permutation of its input"),
        ("c2a.index", "sequence", _flag(_left_neighbors, "index_ok"),
         "left neighbor indices lie strictly left of their element"),
        ("c2a.value", "sequence", _flag(_left_neighbors, "value_ok"),
         "neighbor values are strictly smaller"),
        ("c2a.smallest", "sequence", _flag(_left_neighbors, "smallest_ok"),
         "nothing between neighbor and element is smaller"),
        ("c2a.oracle_eq", "sequence", _ansv_oracle_eq,
         "stack-based neighbors equal the quadratic oracle, both directions"),
        ("c2b.binary", "sequence", _flag(_tree, "binary_ok"),
         "parent and child links form one consistent binary tree"),
        ("c2b.heap", "sequence", _flag(_tree, "heap_ok"),
         "every non-root value exceeds its parent's value"),
        ("c2b.traversal", "sequence", _flag(_tree, "traversal_ok"),
         "in-order traversal recovers positions 0..n-1"),
        ("c2b.oracle_eq", "sequence", _tree_oracle_eq,
         "neighbor-built tree equals the min-split oracle"),
        ("c3.seq_correct", "coo", _seq_correct,
         "sparse product equals the dense textbook product"),
        ("c3.parallel_eq_seq", "coo", _parallel_eq_seq,
         "threaded product is bit-identical to sequential, all policies"),
        ("c3.no_concurrency_issues", "fixed", _no_concurrency_issues,
         "exhaustive interleavings of small synchronized models stay sequential"),
        ("c3.race_witness", "fixed", _race_witness,
         "unsynchronized model provably reaches lost-update outputs"),
    )
}
PROPERTY_NAMES = tuple(REGISTRY)
