"""Acceptance gate: one test and one printed verdict line per criterion.

Each test computes its verdict, prints ``acceptance N: PASS|FAIL`` with
timing detail (visible even under pytest's capture), then asserts, so a
plain ``pytest`` run both streams the per-criterion lines and fails
loudly on any violation.
"""

import time
from itertools import permutations, product

from oraclekit import ansv, ghcsort
from oraclekit.ansv import left_neighbors, oracle_neighbors, right_neighbors
from oraclekit.cartesian import build_tree, check_tree, oracle_tree
from oraclekit.ghcsort import ghc_sort
from oraclekit.instrument import Tally
from oraclekit.monotonic import (
    check_cutpoints,
    compute_cutpoints,
    is_monotonic,
    oracle_cutpoints,
)
from oraclekit.parallel import build_model, explore
from oraclekit.propcheck import CaseRng, GenConfig, run_suite
from oraclekit.properties import PROPERTY_NAMES, REGISTRY
from oraclekit.spmv import (
    coo_from_text,
    coo_from_triplets,
    coo_to_text,
    dense_from_rows,
    from_dense,
    multiply_seq,
    oracle_multiply_dense,
    to_dense,
)

# Instance count for the real-thread criterion-5 suite: 4 policies x
# 100 repetitions per instance, sized to sit far inside the 300 s
# budget on commodity CPython (measured 57-75 ms per instance on 2 vCPUs,
# CPython 3.11).
PARALLEL_INSTANCES = 1000

ANSV_SEQ = [4, 7, 8, 1, 2, 3, 9, 5, 6]


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def _one_based(neighbors) -> list:
    return [0 if y is None else y + 1 for y in neighbors]


def test_criterion_1_pinned_examples(capsys):
    t0 = time.perf_counter()
    bad = []

    if compute_cutpoints([1, 2, 3, 4, 5, 7]) != [0, 6]:
        bad.append("cutpoints row 1")
    if compute_cutpoints([1, 4, 7, 3, 3, 5, 9]) != [0, 3, 5, 7]:
        bad.append("cutpoints row 2")
    if compute_cutpoints([6, 3, 4, 2, 5, 3, 7]) != [0, 2, 4, 6, 7]:
        bad.append("cutpoints row 3")
    if ghc_sort([3, 2, 8, 9, 3, 4, 5]) != [2, 3, 3, 4, 5, 8, 9]:
        bad.append("ghc sort")
    if _one_based(left_neighbors(ANSV_SEQ).neighbors) != [0, 1, 2, 0, 4, 5, 6, 6, 8]:
        bad.append("ansv left")
    tree = build_tree(ANSV_SEQ)
    if _one_based(tree.parent) != [4, 1, 2, 0, 4, 5, 8, 6, 8]:
        bad.append("cartesian parents")
    m = coo_from_triplets(4, 4, [(1, 3, 1), (2, 1, 5), (2, 2, 8), (4, 2, 3)])
    d = dense_from_rows([[0, 0, 1, 0], [5, 8, 0, 0], [0, 0, 0, 0], [0, 3, 0, 0]])
    if to_dense(m) != d or from_dense(d) != m:
        bad.append("coo decode/encode")
    if coo_from_text(coo_to_text(m)) != m:
        bad.append("coo text round trip")

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _report(capsys, 1, ok, f"example pins exact in {elapsed:.3f}s")
    assert not bad, bad
    assert elapsed < 1.0


def test_criterion_2_runs_and_sort_suite(capsys):
    t0 = time.perf_counter()
    cfg = GenConfig(seed=1, max_len=200, cases=10_000)
    names = [n for n in PROPERTY_NAMES if n.startswith(("c1a.", "c1b."))]
    results = run_suite(names, cfg)
    failures = [(r.name, r.message) for r in results if not r.passed]

    mismatches = []
    checked = 0
    for n in range(9):
        for seq in product((0, 1, 2), repeat=n):
            s = list(seq)
            if compute_cutpoints(s) != oracle_cutpoints(s):
                mismatches.append(s)
            checked += 1

    elapsed = time.perf_counter() - t0
    ok = not failures and not mismatches and elapsed < 60.0
    _report(
        capsys,
        2,
        ok,
        f"{len(names)} properties x 10^4 cases + {checked} exhaustive"
        f" sequences in {elapsed:.1f}s (< 60s)",
    )
    assert not failures, failures
    assert not mismatches, mismatches[:3]
    assert elapsed < 60.0


def test_criterion_3_neighbors_and_trees_suite(capsys):
    t0 = time.perf_counter()
    cfg = GenConfig(seed=1, max_len=200, cases=10_000)
    names = [n for n in PROPERTY_NAMES if n.startswith(("c2a.", "c2b."))]
    results = run_suite(names, cfg)
    failures = [(r.name, r.message) for r in results if not r.passed]

    ansv_mismatches = []
    checked = 0
    for n in range(11):
        for seq in product((0, 1, 2, 3), repeat=n):
            s = list(seq)
            if left_neighbors(s).neighbors != oracle_neighbors(s, "left").neighbors:
                ansv_mismatches.append(("left", s))
            if right_neighbors(s).neighbors != oracle_neighbors(s, "right").neighbors:
                ansv_mismatches.append(("right", s))
            checked += 1

    tree_mismatches = []
    for perm in permutations(range(1, 8)):
        s = list(perm)
        t = build_tree(s)
        if t != oracle_tree(s) or not check_tree(s, t).all_ok():
            tree_mismatches.append(s)

    elapsed = time.perf_counter() - t0
    ok = (
        not failures
        and not ansv_mismatches
        and not tree_mismatches
        and elapsed < 120.0
    )
    _report(
        capsys,
        3,
        ok,
        f"{len(names)} properties x 10^4 cases + {checked} exhaustive"
        f" sequences + 5040 permutations in {elapsed:.1f}s (< 120s)",
    )
    assert not failures, failures
    assert not ansv_mismatches, ansv_mismatches[:3]
    assert not tree_mismatches, tree_mismatches[:3]
    assert elapsed < 120.0


def test_criterion_4_sequential_multiply(capsys):
    t0 = time.perf_counter()
    results = run_suite(
        ["c3.seq_correct"], GenConfig(seed=1, max_len=200, cases=10_000)
    )
    failures = [(r.name, r.message) for r in results if not r.passed]

    mismatches = []
    checked = 0
    for rows in (1, 2, 3):
        for cols in (1, 2, 3):
            for cells in product((-1, 0, 1), repeat=rows * cols):
                grid = [list(cells[r * cols : (r + 1) * cols]) for r in range(rows)]
                d = dense_from_rows(grid)
                m = from_dense(d)
                for x in product((-1, 0, 1), repeat=rows):
                    if multiply_seq(list(x), m) != oracle_multiply_dense(list(x), d):
                        mismatches.append((grid, x))
                    checked += 1

    elapsed = time.perf_counter() - t0
    ok = not failures and not mismatches
    _report(
        capsys,
        4,
        ok,
        f"10^4 random + {checked} exhaustive products, tolerance 0,"
        f" in {elapsed:.1f}s",
    )
    assert not failures, failures
    assert not mismatches, mismatches[:3]


def test_criterion_5_concurrent_suite(capsys):
    t0 = time.perf_counter()
    cfg = GenConfig(seed=1, max_len=200, cases=PARALLEL_INSTANCES)
    results = run_suite(["c3.parallel_eq_seq", "c3.no_concurrency_issues"], cfg)
    failures = [(r.name, r.message) for r in results if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(
        capsys,
        5,
        ok,
        f"4 policies x 100 reps x {PARALLEL_INSTANCES} instances +"
        f" 2304-model exhaustive sweep in {elapsed:.1f}s (< 300s)",
    )
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_6_race_witness(capsys):
    m = coo_from_triplets(2, 1, [(1, 1, 1), (2, 1, 2)])
    report = explore(build_model([1, 1], m, 2, "none_split_rw"))
    outs = report.terminal_outputs
    prop_ok = run_suite(["c3.race_witness"], GenConfig(seed=1, cases=1))[0].passed
    ok = len(outs) >= 2 and (1,) in outs and (2,) in outs and prop_ok
    _report(
        capsys,
        6,
        ok,
        f"unsynchronized terminals {sorted(outs)} include both lost updates",
    )
    assert len(outs) >= 2
    assert (1,) in outs and (2,) in outs  # both lost-update values
    assert prop_ok


def test_criterion_7_regression_pins(capsys):
    bad = []

    # Segment directions do not alternate: four segments, all of them
    # nonincreasing.
    s = [6, 3, 4, 2, 5, 3, 7]
    cut = compute_cutpoints(s)
    if cut != [0, 2, 4, 6, 7]:
        bad.append("alternation cut")
    segments = [s[cut[k] : cut[k + 1]] for k in range(len(cut) - 1)]
    if len(segments) != 4 or not all(
        all(seg[i] >= seg[i + 1] for i in range(len(seg) - 1)) for seg in segments
    ):
        bad.append("alternation segments")

    # The answering stack top is inspected, never popped: after [3,1,2]
    # index 1 must remain on the stack and serve index 3 too.
    out, stack, pops = ansv._scan([3, 1, 2], range(3))
    if out != [None, None, 1] or stack != [1, 2] or pops != 1:
        bad.append("ansv stack state")
    if left_neighbors([3, 1, 2, 2]).neighbors != (None, None, 1, 1):
        bad.append("ansv survivor reuse")

    # [1, 2, 2]: right-maximality holds, left-maximality provably
    # cannot, so the maximality property is right-handed only.
    if compute_cutpoints([1, 2, 2]) != [0, 2, 3]:
        bad.append("1 2 2 cut")
    if not check_cutpoints([1, 2, 2], [0, 2, 3]).right_maximal:
        bad.append("1 2 2 right-maximal")
    if not is_monotonic([1, 2, 2], 1, 3):
        bad.append("1 2 2 left extension")  # [2, 2] must be monotonic
    if REGISTRY["c1a.maximal"].check([1, 2, 2]) is not None:
        bad.append("c1a.maximal excludes the counterexample")

    ok = not bad
    _report(capsys, 7, ok, "alternation, inspect-not-pop, 1 2 2 pins hold")
    assert not bad, bad


def test_criterion_8_mutation_smoke(capsys, monkeypatch):
    cfg = GenConfig(seed=1, cases=2000, max_len=30)

    def merge_tie_drop(a, b):
        out, x, y = [], 0, 0
        while x < len(a) and y < len(b):
            if a[x] < b[y]:
                out.append(a[x])
                x += 1
            elif b[y] < a[x]:
                out.append(b[y])
                y += 1
            else:  # the injected bug: ties emit one copy, not two
                out.append(a[x])
                x += 1
                y += 1
        out.extend(a[x:])
        out.extend(b[y:])
        return out

    with monkeypatch.context() as mp:
        mp.setattr(ghcsort, "merge", merge_tie_drop)
        merge_results = run_suite(
            ["c1b.merge_sorted", "c1b.sorted", "c1b.permutation"], cfg
        )
    merge_failed = [r for r in merge_results if not r.passed]
    merge_sizes = [
        len(r.counterexample[1]) for r in merge_failed if r.counterexample
    ]

    def pop_survivor(s, tally=None):
        out, stack = [], []
        for x in range(len(s)):
            v = s[x]
            while stack and s[stack[-1]] >= v:
                stack.pop()
            out.append(stack.pop() if stack else None)  # the injected bug
            stack.append(x)
        return ansv.NeighborArray(tuple(out), "left")

    with monkeypatch.context() as mp:
        mp.setattr(ansv, "left_neighbors", pop_survivor)
        ansv_results = run_suite(
            ["c2a.index", "c2a.value", "c2a.smallest", "c2a.oracle_eq"], cfg
        )
    ansv_failed = [r for r in ansv_results if not r.passed]
    ansv_sizes = [len(r.counterexample[1]) for r in ansv_failed if r.counterexample]

    ok = (
        bool(merge_sizes)
        and bool(ansv_sizes)
        and min(merge_sizes) <= 6
        and min(ansv_sizes) <= 6
    )
    _report(
        capsys,
        8,
        ok,
        f"merge mutant: {len(merge_failed)} properties failed, shrunk to"
        f" {min(merge_sizes) if merge_sizes else '-'} elements;"
        f" ansv mutant: {len(ansv_failed)} failed, shrunk to"
        f" {min(ansv_sizes) if ansv_sizes else '-'}",
    )
    assert merge_failed and merge_sizes and min(merge_sizes) <= 6
    assert ansv_failed and ansv_sizes and min(ansv_sizes) <= 6


def test_criterion_9_performance_sanity(capsys):
    rng = CaseRng(9, 0)
    s = [rng.next_int(-(10**9), 10**9) for _ in range(10**6)]

    tally_cut = Tally()
    t0 = time.perf_counter()
    cut = compute_cutpoints(s, tally_cut)
    cut_time = time.perf_counter() - t0

    tally_ansv = Tally()
    t0 = time.perf_counter()
    arr = left_neighbors(s, tally_ansv)
    ansv_time = time.perf_counter() - t0

    ok = (
        cut_time < 1.0
        and ansv_time < 1.0
        and tally_cut.comparisons <= 2 * len(s)
        and tally_ansv.pops <= len(s)
    )
    _report(
        capsys,
        9,
        ok,
        f"10^6 elements: cutpoints {cut_time:.2f}s"
        f" ({tally_cut.comparisons} cmp <= 2n), ansv {ansv_time:.2f}s"
        f" ({tally_ansv.pops} pops <= n)",
    )
    assert cut[0] == 0 and cut[-1] == len(s)
    assert len(arr.neighbors) == len(s)
    assert cut_time < 1.0 and tally_cut.comparisons <= 2 * len(s)
    assert ansv_time < 1.0 and tally_ansv.pops <= len(s)
