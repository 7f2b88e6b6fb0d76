import dataclasses
import sys
import threading

import pytest

from oraclekit import ansv, cartesian, ghcsort, monotonic, parallel
from oraclekit.propcheck import GenConfig, run_suite
from oraclekit.properties import PROPERTY_NAMES, REGISTRY, Property

EXPECTED = (
    "c1a.nonempty",
    "c1a.begin_end",
    "c1a.bounds",
    "c1a.monotonic",
    "c1a.maximal",
    "c1a.oracle_eq",
    "c1b.merge_sorted",
    "c1b.merge_oracle_eq",
    "c1b.sorted",
    "c1b.permutation",
    "c2a.index",
    "c2a.value",
    "c2a.smallest",
    "c2a.oracle_eq",
    "c2b.binary",
    "c2b.heap",
    "c2b.traversal",
    "c2b.oracle_eq",
    "c3.seq_correct",
    "c3.parallel_eq_seq",
    "c3.no_concurrency_issues",
    "c3.race_witness",
)


def test_registry_names_are_stable():
    assert PROPERTY_NAMES == EXPECTED
    assert set(REGISTRY) == set(EXPECTED)


def test_registry_kinds():
    kinds = {name: REGISTRY[name].kind for name in PROPERTY_NAMES}
    assert kinds["c3.seq_correct"] == "coo"
    assert kinds["c3.parallel_eq_seq"] == "coo"
    assert kinds["c3.no_concurrency_issues"] == "fixed"
    assert kinds["c3.race_witness"] == "fixed"
    sequence_names = [n for n in PROPERTY_NAMES if n.startswith(("c1", "c2"))]
    assert all(kinds[n] == "sequence" for n in sequence_names)
    assert all(REGISTRY[n].summary for n in PROPERTY_NAMES)


def test_sequence_and_seq_coo_properties_pass_quickly():
    names = [
        n
        for n in PROPERTY_NAMES
        if REGISTRY[n].kind == "sequence" or n == "c3.seq_correct"
    ]
    results = run_suite(names, GenConfig(seed=1, cases=60, max_len=40))
    assert all(r.passed for r in results), [
        (r.name, r.message) for r in results if not r.passed
    ]


def test_fixed_properties_pass():
    results = run_suite(
        ["c3.race_witness"], GenConfig(seed=1, cases=1)
    )
    assert results[0].passed and results[0].cases_run == 1


def test_parallel_property_passes_on_a_few_cases():
    results = run_suite(["c3.parallel_eq_seq"], GenConfig(seed=1, cases=3))
    assert results[0].passed


# --- The shared runners compute each case's answer once ------------------
#
# REFERENCE holds the c1 and c2 properties without shared runners: every
# property computes its family's answer itself.
# ``run_suite`` must return identical results from both registries, with
# the real algorithms and under mutants.

FAMILIES = ("c1a", "c1b", "c2a", "c2b")


def _ref_flag(run, flag):
    def check(s):
        report, answer = run(s)
        if getattr(report, flag):
            return None
        return f"{flag} violated by {answer()}"

    return check


def _ref_cutpoints(s):
    cut = monotonic.compute_cutpoints(s)
    report = monotonic.check_cutpoints(s, cut)
    return report, lambda: f"cut {cut}; first violation {report.first_violation}"


def _ref_cutpoints_oracle_eq(s):
    got = monotonic.compute_cutpoints(s)
    want = monotonic.oracle_cutpoints(s)
    if got == want:
        return None
    return f"cutpoints {got} != greedy oracle {want}"


def _ref_sort_sorted(s):
    out = ghcsort.ghc_sort(s)
    if ghcsort.is_sorted(out):
        return None
    return f"ghc_sort output is not nondecreasing: {out}"


def _ref_sort_permutation(s):
    out = ghcsort.ghc_sort(s)
    if ghcsort.multiset_equal(out, s):
        return None
    return f"ghc_sort output is not a permutation of the input: {out}"


def _ref_left_neighbors(s):
    arr = ansv.left_neighbors(s)
    return ansv.check_ansv(s, arr), lambda: f"left neighbors {arr.neighbors}"


def _ref_ansv_oracle_eq(s):
    for side, scan in (("left", ansv.left_neighbors), ("right", ansv.right_neighbors)):
        got, want = scan(s).neighbors, ansv.oracle_neighbors(s, side).neighbors
        if got != want:
            return f"{side} neighbors {got} != oracle {want}"
    return None


def _ref_tree(s):
    t = list(dict.fromkeys(s))
    tree = cartesian.build_tree(t)
    return cartesian.check_tree(t, tree), lambda: (
        f"parent array {tree.parent} (input deduped to {t})"
    )


def _ref_tree_oracle_eq(s):
    t = list(dict.fromkeys(s))
    got = cartesian.build_tree(t)
    want = cartesian.oracle_tree(t)
    if got == want:
        return None
    return (
        f"tree parents {got.parent} != min-split oracle {want.parent}"
        f" (input deduped to {t})"
    )


_REF_CHECKS = {
    "c1a.nonempty": _ref_flag(_ref_cutpoints, "non_empty"),
    "c1a.begin_end": _ref_flag(_ref_cutpoints, "begin_to_end"),
    "c1a.bounds": _ref_flag(_ref_cutpoints, "within_bounds"),
    "c1a.monotonic": _ref_flag(_ref_cutpoints, "monotonic"),
    "c1a.maximal": _ref_flag(_ref_cutpoints, "right_maximal"),
    "c1a.oracle_eq": _ref_cutpoints_oracle_eq,
    "c1b.merge_sorted": REGISTRY["c1b.merge_sorted"].check,  # never shared
    "c1b.merge_oracle_eq": REGISTRY["c1b.merge_oracle_eq"].check,  # never shared
    "c1b.sorted": _ref_sort_sorted,
    "c1b.permutation": _ref_sort_permutation,
    "c2a.index": _ref_flag(_ref_left_neighbors, "index_ok"),
    "c2a.value": _ref_flag(_ref_left_neighbors, "value_ok"),
    "c2a.smallest": _ref_flag(_ref_left_neighbors, "smallest_ok"),
    "c2a.oracle_eq": _ref_ansv_oracle_eq,
    "c2b.binary": _ref_flag(_ref_tree, "binary_ok"),
    "c2b.heap": _ref_flag(_ref_tree, "heap_ok"),
    "c2b.traversal": _ref_flag(_ref_tree, "traversal_ok"),
    "c2b.oracle_eq": _ref_tree_oracle_eq,
}
REFERENCE = {
    name: Property(name, REGISTRY[name].kind, check, REGISTRY[name].summary)
    for name, check in _REF_CHECKS.items()
}


def test_reference_covers_every_c1_and_c2_property():
    assert set(REFERENCE) == {n for n in PROPERTY_NAMES if n.startswith(FAMILIES)}


def merge_tie_drop(a, b):
    """Acceptance criterion 8's merge mutant: equal heads emit one copy."""
    out, x, y = [], 0, 0
    while x < len(a) and y < len(b):
        if a[x] < b[y]:
            out.append(a[x])
            x += 1
        elif b[y] < a[x]:
            out.append(b[y])
            y += 1
        else:
            out.append(a[x])
            x += 1
            y += 1
    out.extend(a[x:])
    out.extend(b[y:])
    return out


def pop_survivor(s, tally=None):
    """Acceptance criterion 8's ANSV mutant: the answering top is popped."""
    out, stack = [], []
    for x in range(len(s)):
        v = s[x]
        while stack and s[stack[-1]] >= v:
            stack.pop()
        out.append(stack.pop() if stack else None)
        stack.append(x)
    return ansv.NeighborArray(tuple(out), "left")


_compute_cutpoints = monotonic.compute_cutpoints
_build_tree = cartesian.build_tree


def split_after_two(s):
    """Cutpoints that end every run after at most two elements: still
    monotonic segments, no longer maximal ones."""
    cut = _compute_cutpoints(s)
    out = []
    for lo, hi in zip(cut, cut[1:]):
        out.extend(range(lo, hi, 2))
    return out + cut[-1:]


def swap_root_children(s, tally=None):
    """A tree whose root has its left and right child links swapped."""
    tree = _build_tree(s, tally)
    if tree.root is None:
        return tree
    left, right = list(tree.left_child), list(tree.right_child)
    left[tree.root], right[tree.root] = right[tree.root], left[tree.root]
    return dataclasses.replace(tree, left_child=tuple(left), right_child=tuple(right))


MUTANTS = {
    "none": None,
    "merge_tie_drop": (ghcsort, "merge", merge_tie_drop),
    "merge_runs_tie_drop": (ghcsort, "_merge_runs", merge_tie_drop),
    "pop_survivor": (ansv, "left_neighbors", pop_survivor),
    "split_after_two": (monotonic, "compute_cutpoints", split_after_two),
    "swap_root_children": (cartesian, "build_tree", swap_root_children),
}


def _family_names(family):
    return [n for n in PROPERTY_NAMES if n.startswith(family + ".")]


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_shared_runners_match_the_reference(monkeypatch, mutant, seed):
    if MUTANTS[mutant] is not None:
        monkeypatch.setattr(*MUTANTS[mutant])
    cfg = GenConfig(seed=seed, cases=300, max_len=200)
    for family in FAMILIES:
        names = _family_names(family)
        assert run_suite(names, cfg) == run_suite(names, cfg, REFERENCE), family


@pytest.mark.parametrize(
    "mutant, family, breaks",
    (
        ("merge_tie_drop", "c1b", "c1b.merge_sorted"),
        ("merge_tie_drop", "c1b", "c1b.merge_oracle_eq"),
        ("merge_runs_tie_drop", "c1b", "c1b.merge_sorted"),
        ("merge_runs_tie_drop", "c1b", "c1b.permutation"),
        ("pop_survivor", "c2a", "c2a.smallest"),
        ("split_after_two", "c1a", "c1a.maximal"),
        ("swap_root_children", "c2b", "c2b.binary"),
    ),
)
def test_every_mutant_fails_its_family(monkeypatch, mutant, family, breaks):
    monkeypatch.setattr(*MUTANTS[mutant])
    results = run_suite(_family_names(family), GenConfig(seed=1, cases=300, max_len=200))
    failed = {r.name for r in results if not r.passed}
    assert breaks in failed, failed


def test_each_case_computes_and_checks_its_answer_once(monkeypatch):
    calls = {}

    def counted(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        calls[attr] = 0
        monkeypatch.setattr(module, attr, wrapper)

    counted(monotonic, "compute_cutpoints")
    counted(monotonic, "check_cutpoints")
    counted(ghcsort, "ghc_sort")
    counted(ansv, "left_neighbors")
    counted(cartesian, "build_tree")
    cases = 200
    names = [n for family in FAMILIES for n in _family_names(family)]
    results = run_suite(names, GenConfig(seed=4, cases=cases, max_len=50))
    assert all(r.passed for r in results)
    assert calls == dict.fromkeys(calls, cases)


def test_memo_is_keyed_by_identity_not_equality(monkeypatch):
    maximal = REGISTRY["c1a.maximal"].check
    s = [1, 2, 3, 4, 5]
    assert maximal(s) is None
    monkeypatch.setattr(monotonic, "compute_cutpoints", split_after_two)
    assert maximal(list(s)) == (
        "right_maximal violated by cut [0, 2, 4, 5];"
        " first violation ('right_maximal', 0)"
    )


def test_threads_checking_distinct_cases_get_single_thread_verdicts(monkeypatch):
    monkeypatch.setattr(monotonic, "compute_cutpoints", split_after_two)
    checks = [REGISTRY[n].check for n in _family_names("c1a")]
    bases = (  # one per thread: more threads than a two-core machine has cores
        [[1, 2, 3, 4, 5], [9, 7, 5, 3], [2, 2, 2, 1, 0, 4]],
        [[5, 4, 3, 2, 1, 0], [1, 3, 5, 7, 9, 11, 13], [4, 4, 8]],
        [[0, 1, 2], [8, 6, 4, 2, 0, -2, -4], [1, 1, 2, 3, 5, 8]],
        [[7, 7, 7, 7], [3, 2, 1, 2, 3, 4], [-5, -3, -1, 1, 3]],
    )
    expected = [[[c(list(s)) for c in checks] for s in base] for base in bases]
    assert any(m is not None for e in expected for v in e for m in v)
    mismatches, finished = [], []

    def worker(base, want):
        for i in range(2000):
            k = i % len(base)
            s = list(base[k])
            got = [c(s) for c in checks]
            if got != want[k]:
                mismatches.append((s, got))
        finished.append(base)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(base, want))
            for base, want in zip(bases, expected)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(finished) == len(bases)
    assert not mismatches, mismatches[:3]


def test_fixed_properties_run_their_sweep_on_every_call(monkeypatch):
    calls = []
    explore = parallel.explore

    def counted(ts):
        calls.append(ts)
        return explore(ts)

    monkeypatch.setattr(parallel, "explore", counted)
    for name in ("c3.race_witness", "c3.no_concurrency_issues"):
        check = REGISTRY[name].check
        del calls[:]
        assert check(None) is None
        once = len(calls)
        assert once > 0
        assert check(None) is None
        assert len(calls) == 2 * once, name


def test_no_concurrency_issues_builds_every_small_model(monkeypatch):
    # Every cell subset of the 1x1, 1x2, 2x1 and 2x2 shapes, with entries and
    # x in {1, 2}, gives 6 + 18 + 36 + 324 = 384 (matrix, x) pairs; times 3
    # worker counts and 2 sync modes, 2,304 distinct models.
    built = []
    build_model = parallel.build_model

    def counted(x, m, workers, sync_mode):
        built.append((tuple(x), m, workers, sync_mode))
        return build_model(x, m, workers, sync_mode)

    monkeypatch.setattr(parallel, "build_model", counted)
    assert REGISTRY["c3.no_concurrency_issues"].check(None) is None
    assert len(built) == 2304
    assert len(set(built)) == 2304
