import random
import sys
import threading
import tracemalloc
from itertools import product

import pytest

from oraclekit import parallel
from oraclekit.errors import ConfigError, DimensionError, ModelTooLargeError
from oraclekit.parallel import (
    MAX_WORKERS,
    SYNC_MODES,
    AllocationPolicy,
    ExplorationReport,
    TransitionSystem,
    _chunks,
    build_model,
    explore,
    multiply_parallel,
)
from oraclekit.propcheck import GenConfig, gen_coo
from oraclekit.spmv import INT64_MAX, accumulate, coo_from_triplets, multiply_seq

# Opcodes used when hand-building explorer inputs and by the reference.
_ADD, _ACQUIRE, _RELEASE, _READ, _WRITE = range(5)


def test_chunks_are_balanced_disjoint_and_covering():
    for nnz, workers, sizes in ((8, 3, [3, 3, 2]), (2, 5, [1, 1, 0, 0, 0])):
        chunks = _chunks(nnz, workers)
        assert [len(r) for r in chunks] == sizes  # sizes differ by at most one
        flat = [i for r in chunks for i in r]
        assert flat == list(range(nnz))  # disjoint, covering, in order


def test_policy_validation():
    m = coo_from_triplets(1, 1, [(1, 1, 1)])
    for policy in (
        AllocationPolicy.static_chunks(0),
        AllocationPolicy.dynamic_stealing(0),
        AllocationPolicy("bogus"),
        AllocationPolicy.static_chunks(MAX_WORKERS + 1),
        AllocationPolicy.dynamic_stealing(MAX_WORKERS + 1),
    ):
        with pytest.raises(ConfigError):
            multiply_parallel([1], m, policy)


def test_per_element_threads_are_bounded(monkeypatch):
    # One accumulate call per worker and partial vector, so the count of
    # calls is the worker count whichever pool thread runs them.
    partials = []

    def counting_accumulate(y, x, triplets):
        partials.append(y)
        accumulate(y, x, triplets)

    triplets = [(r, c, r + c) for r in range(1, 21) for c in range(1, 11)]
    m = coo_from_triplets(20, 10, triplets)
    x = list(range(1, 21))
    monkeypatch.setattr(parallel, "accumulate", counting_accumulate)
    got = multiply_parallel(x, m, AllocationPolicy.per_element())
    assert len(m.vals) == 200
    assert 0 < len(partials) <= MAX_WORKERS
    assert got == multiply_seq(x, m)


def test_claim_counter_under_contention():
    # More workers than cores and a short switch interval, so claims
    # interleave densely; a double or skipped claim changes the sum.
    nnz = 20_000
    m = coo_from_triplets(nnz, 1, [(r, 1, 1) for r in range(1, nnz + 1)])
    got = []
    runner = threading.Thread(
        target=lambda: got.append(
            multiply_parallel([1] * nnz, m, AllocationPolicy.dynamic_stealing(8))
        ),
        daemon=True,
    )
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive()
    assert got == [[nnz]]


def test_parallel_equals_sequential_across_policies():
    cfg = GenConfig(seed=21, max_len=30, cases=40)
    policies = [
        AllocationPolicy.per_element(),
        AllocationPolicy.static_chunks(1),
        AllocationPolicy.static_chunks(2),
        AllocationPolicy.static_chunks(4),
        AllocationPolicy.static_chunks(8),
        AllocationPolicy.dynamic_stealing(2),
        AllocationPolicy.dynamic_stealing(4),
        AllocationPolicy.dynamic_stealing(8),
    ]
    for i in range(cfg.cases):
        x, m = gen_coo(cfg, i)
        want = multiply_seq(x, m)
        for policy in policies:
            assert multiply_parallel(x, m, policy) == want


def test_parallel_propagates_worker_errors():
    m = coo_from_triplets(1, 1, [(1, 1, INT64_MAX)])
    with pytest.raises(OverflowError):
        multiply_parallel([2], m, AllocationPolicy.per_element())
    # Both chunks overflow; the failure raised is worker 0's.
    both = coo_from_triplets(2, 2, [(1, 1, INT64_MAX), (2, 2, INT64_MAX)])
    with pytest.raises(OverflowError, match=r"\(1,1\)"):
        multiply_parallel([2, 2], both, AllocationPolicy.static_chunks(2))
    with pytest.raises(DimensionError):
        multiply_parallel([1, 2], m, AllocationPolicy.static_chunks(2))
    with pytest.raises(ConfigError):
        multiply_parallel([1], m, AllocationPolicy.dynamic_stealing(0))


def test_merge_checks_every_step_in_worker_order():
    # Partials 0 and 1 sum to 2^63 although the exact total, 2^62, fits.
    m = coo_from_triplets(3, 1, [(1, 1, 2**62), (2, 1, 2**62), (3, 1, -(2**62))])
    with pytest.raises(OverflowError, match=r"\bcolumn 1\b"):
        multiply_parallel([1, 1, 1], m, AllocationPolicy.static_chunks(3))
    with pytest.raises(OverflowError, match=r"\bcolumn 1\b"):
        multiply_seq([1, 1, 1], m)
    # Column 2 leaves int64 at worker 1's merge, column 1 only at worker 2's.
    late = coo_from_triplets(3, 2, [(1, 1, 1), (1, 2, 2**62), (2, 1, 1), (2, 2, 2**62),
                                    (3, 1, INT64_MAX), (3, 2, -(2**62))])
    with pytest.raises(OverflowError, match=r"^column 2 merged sum 9223372036854775808 "):
        multiply_parallel([1, 1, 1], late, AllocationPolicy.static_chunks(3))
    # Both columns leave int64 at the same merge: column 1 is named.
    both = coo_from_triplets(2, 2, [(1, 1, 2**62), (1, 2, 2**62), (2, 1, 2**62), (2, 2, 2**62)])
    with pytest.raises(OverflowError, match=r"^column 1 merged sum "):
        multiply_parallel([1, 1], both, AllocationPolicy.static_chunks(2))


def test_model_action_shapes():
    m = coo_from_triplets(2, 2, [(1, 1, 3), (2, 2, 4)])
    flat = lambda ts: sum(len(a) for a in ts.worker_actions)
    assert flat(build_model([1, 1], m, 2, "atomic_rmw")) == 2
    assert flat(build_model([1, 1], m, 2, "lock_per_cell")) == 6
    assert flat(build_model([1, 1], m, 2, "none_split_rw")) == 4
    ts = build_model([5, 7], m, 2, "atomic_rmw")
    assert ts.sequential_result == (15, 28)


def test_model_actions_are_pinned():
    # Deltas x[r] * v: 5 * 3 = 15 into column 0 and 7 * 4 = 28 into column 1.
    m = coo_from_triplets(2, 2, [(1, 1, 3), (2, 2, 4)])
    per_triplet = {
        "atomic_rmw": lambda c, d: ((_ADD, c, d),),
        "lock_per_cell": lambda c, d: ((_ACQUIRE, c, 0), (_ADD, c, d), (_RELEASE, c, 0)),
        "none_split_rw": lambda c, d: ((_READ, c, 0), (_WRITE, c, d)),
    }
    assert tuple(per_triplet) == SYNC_MODES
    for sync, acts in per_triplet.items():
        first, second = acts(0, 15), acts(1, 28)
        assert build_model([5, 7], m, 1, sync).worker_actions == (first + second,)
        assert build_model([5, 7], m, 2, sync).worker_actions == (first, second)


def test_model_validation():
    m = coo_from_triplets(1, 1, [(1, 1, 1)])
    with pytest.raises(ConfigError):
        build_model([1], m, 1, "fence")
    with pytest.raises(ConfigError):
        build_model([1], m, 0, "atomic_rmw")
    with pytest.raises(ConfigError):
        build_model([1], m, MAX_WORKERS + 1, "atomic_rmw")
    with pytest.raises(DimensionError):
        build_model([1, 2], m, 1, "atomic_rmw")
    big = coo_from_triplets(3, 11, [(r, c, 1) for r in (1, 2, 3) for c in range(1, 12)])
    assert len(big.vals) == 33
    with pytest.raises(ModelTooLargeError):
        build_model([1, 1, 1], big, 1, "atomic_rmw")
    with pytest.raises(ModelTooLargeError):  # the cap is checked before x's length
        build_model([1], big, 1, "atomic_rmw")


def test_synchronized_models_match_sequential():
    m = coo_from_triplets(2, 2, [(1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 4)])
    for sync in ("atomic_rmw", "lock_per_cell"):
        for workers in (1, 2, 3):
            report = explore(build_model([1, 1], m, workers, sync))
            assert not report.deadlock_found
            assert report.matches_sequential
            assert report.terminal_outputs == {(4, 6)}


def test_race_witness_terminals():
    m = coo_from_triplets(2, 1, [(1, 1, 1), (2, 1, 2)])
    report = explore(build_model([1, 1], m, 2, "none_split_rw"))
    assert report.terminal_outputs == {(1,), (2,), (3,)}
    assert not report.deadlock_found
    assert not report.matches_sequential
    # the same schedule space under a lock collapses to the true sum
    locked = explore(build_model([1, 1], m, 2, "lock_per_cell"))
    assert locked.terminal_outputs == {(3,)}
    assert locked.matches_sequential


def test_single_worker_has_one_schedule():
    m = coo_from_triplets(2, 1, [(1, 1, 1), (2, 1, 2)])
    report = explore(build_model([1, 1], m, 1, "none_split_rw"))
    assert report.terminal_outputs == {(3,)}
    assert report.matches_sequential


def test_explore_sizes_its_slots_from_the_opcodes():
    # Lock bits and temps exist only where an opcode needs them, in both
    # explorers; a wrongly sized slot would raise IndexError or split states.
    m = coo_from_triplets(2, 2, [(1, 1, 1), (1, 2, 3), (2, 1, 2)])
    for mode in SYNC_MODES:
        ts = build_model([1, 1], m, 2, mode)
        assert explore(ts) == _nested_explore(ts), mode
    mixed = TransitionSystem(
        worker_actions=(
            ((_ACQUIRE, 0, 0), (_ADD, 0, 1), (_RELEASE, 0, 0)),
            ((_READ, 1, 0), (_WRITE, 1, 2)),
            ((_ADD, 1, 4),),
        ),
        sequential_result=(1, 6),
    )
    report = explore(mixed)
    assert report == _nested_explore(mixed)
    assert report.terminal_outputs == {(1, 2), (1, 6)}  # the write may lose the add
    assert not report.deadlock_found and not report.matches_sequential


def test_explore_fills_back_untouched_columns():
    ts = TransitionSystem(worker_actions=(((_ADD, 2, 5),),), sequential_result=(0, 0, 5))
    report = explore(ts)
    assert report == _nested_explore(ts)
    assert report.terminal_outputs == {(0, 0, 5)}
    assert report.states_visited == 2
    assert report.matches_sequential and not report.deadlock_found


@pytest.mark.parametrize("cell", [5, 1, -1])
def test_explore_refuses_cells_outside_the_result(cell):
    # A one-column result has only cell 0; any other cell's add would be lost.
    for workers in ((((_ADD, cell, 1),),), (((_ADD, 0, 1),), ((_ADD, cell, 1),))):
        ts = TransitionSystem(workers, (0,))
        with pytest.raises(ConfigError, match=r"outside range\(1\)"):
            explore(ts, max_states=0)  # refused before the first state


def test_explore_refuses_unknown_opcodes():
    for workers in ((((7, 0, 1),),), (((7, 0, 1),), ((_READ, 0, 0),)), (((-1, 0, 0),),)):
        ts = TransitionSystem(workers, (1,))
        with pytest.raises(ConfigError, match="unknown opcodes"):
            explore(ts, max_states=0)  # refused before the first state


def test_empty_model_terminates_at_zero():
    m = coo_from_triplets(2, 2, [])
    report = explore(build_model([1, 1], m, 3, "atomic_rmw"))
    assert report.terminal_outputs == {(0, 0)}
    assert report.matches_sequential


def test_state_cap_is_enforced():
    m = coo_from_triplets(2, 1, [(1, 1, 1), (2, 1, 2)])
    ts = build_model([1, 1], m, 2, "none_split_rw")
    with pytest.raises(ModelTooLargeError) as exc:
        explore(ts, max_states=3)
    assert exc.value.states_visited == 4


def test_explorer_detects_deadlock():
    # Hand-built pathology: both workers acquire the same lock and
    # never release it, so whichever goes first strands the other.
    ts = TransitionSystem(
        worker_actions=(((_ACQUIRE, 0, 0),), ((_ACQUIRE, 0, 0),)),
        sequential_result=(0,),
    )
    report = explore(ts)
    assert report.deadlock_found
    assert not report.matches_sequential
    assert report.terminal_outputs == set()
    assert report == _nested_explore(ts)


def _nested_explore(ts, max_states=1_000_000):
    """Reference explorer: a state is four tuples (pcs, every column,
    a lock bit per column, temps) rebuilt by slicing; locks and temps exist
    only if some opcode uses them. The flat-tuple ``explore`` must give
    equal reports, and hit the cap at the same state, on every model."""
    actions = ts.worker_actions
    nworkers = len(actions)
    lengths = tuple(len(a) for a in actions)
    ops = {op for acts in actions for op, _, _ in acts}
    use_locks = not ops.isdisjoint((_ACQUIRE, _RELEASE))
    use_temps = not ops.isdisjoint((_READ, _WRITE))
    width = len(ts.sequential_result)

    init_pcs = (0,) * nworkers
    init_y = (0,) * width
    init_locks = (0,) * width if use_locks else ()
    init_temps = (0,) * nworkers if use_temps else ()
    init = (init_pcs, init_y, init_locks, init_temps)

    visited = set()
    terminals = set()
    deadlock = False
    stack = [init]
    while stack:
        state = stack.pop()
        if state in visited:
            continue
        visited.add(state)
        if len(visited) > max_states:
            raise ModelTooLargeError(
                f"exploration exceeded {max_states} states",
                states_visited=len(visited),
                terminal_outputs_seen=len(terminals),
            )
        pcs, y, locks, temps = state
        done = True
        enabled_any = False
        for w in range(nworkers):
            pc = pcs[w]
            if pc >= lengths[w]:
                continue
            done = False
            op, cell, delta = actions[w][pc]
            if op == _ACQUIRE and locks[cell]:
                continue
            enabled_any = True
            new_pcs = pcs[:w] + (pc + 1,) + pcs[w + 1 :]
            new_y, new_locks, new_temps = y, locks, temps
            if op == _ADD:
                new_y = y[:cell] + (y[cell] + delta,) + y[cell + 1 :]
            elif op == _ACQUIRE:
                new_locks = locks[:cell] + (1,) + locks[cell + 1 :]
            elif op == _RELEASE:
                new_locks = locks[:cell] + (0,) + locks[cell + 1 :]
            elif op == _READ:
                new_temps = temps[:w] + (y[cell],) + temps[w + 1 :]
            else:
                new_y = y[:cell] + (temps[w] + delta,) + y[cell + 1 :]
                new_temps = temps[:w] + (0,) + temps[w + 1 :]
            stack.append((new_pcs, new_y, new_locks, new_temps))
        if done:
            terminals.add(y)
        elif not enabled_any:
            deadlock = True

    matches = (not deadlock) and terminals == {ts.sequential_result}
    return ExplorationReport(
        states_visited=len(visited),
        terminal_outputs=frozenset(terminals),
        deadlock_found=deadlock,
        matches_sequential=matches,
    )


def _small_models():
    """(x, matrix) of the c3.no_concurrency_issues enumeration: shapes up
    to 2x2, every cell subset of at most 4 entries, values in {1, 2}."""
    for rows, cols in product((1, 2), repeat=2):
        cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
        for mask in range(1 << len(cells)):
            chosen = [cells[i] for i in range(len(cells)) if mask >> i & 1]
            for values in product((1, 2), repeat=len(chosen)):
                triplets = [(r, c, v) for (r, c), v in zip(chosen, values)]
                m = coo_from_triplets(rows, cols, triplets)
                for x in product((1, 2), repeat=rows):
                    yield list(x), m


def _full(rows, cols):
    return [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


def _blocks(per_worker, workers):
    return [(r, (r - 1) // per_worker + 1) for r in range(1, per_worker * workers + 1)]


# The benchmark's explorer model structures: (rows, cols, cells, workers,
# sync mode, exact state count). Values do not change the state count.
_BENCH_MODELS = (
    (5, 4, _full(5, 4), 4, "atomic_rmw", 1_296),
    (4, 3, _full(4, 3), 3, "lock_per_cell", 1_513),
    (4, 4, _full(4, 4), 4, "lock_per_cell", 16_049),
    (16, 4, _blocks(4, 4), 4, "none_split_rw", 6_561),
    (20, 4, _blocks(5, 4), 4, "none_split_rw", 14_641),
)


def test_flat_explorer_matches_nested_reference_on_small_models():
    count = 0
    for x, m in _small_models():
        for workers in (1, 2, 3, 4):
            for sync in SYNC_MODES:
                ts = build_model(x, m, workers, sync)
                assert explore(ts) == _nested_explore(ts), (x, m, workers, sync)
                count += 1
    assert count == 384 * 4 * 3


def test_flat_explorer_matches_nested_reference_on_benchmark_models():
    rng = random.Random(9)
    for rows, cols, cells, workers, sync, states in _BENCH_MODELS:
        m = coo_from_triplets(rows, cols, [(r, c, rng.randint(1, 9)) for r, c in cells])
        x = [rng.randint(1, 9) for _ in range(rows)]
        ts = build_model(x, m, workers, sync)
        report = explore(ts)
        assert report.states_visited == states
        assert report == _nested_explore(ts)


def test_flat_explorer_matches_nested_reference_at_every_cap():
    m = coo_from_triplets(2, 2, [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
    for sync in SYNC_MODES:
        ts = build_model([1, 2], m, 2, sync)
        full = explore(ts)
        assert full == _nested_explore(ts)
        terminals_seen = set()
        for cap in range(full.states_visited):
            caught = []
            for explorer in (explore, _nested_explore):
                with pytest.raises(ModelTooLargeError) as exc:
                    explorer(ts, max_states=cap)
                caught.append((exc.value.states_visited, exc.value.terminal_outputs_seen))
            assert caught[0] == caught[1], (sync, cap)
            assert caught[0][0] == cap + 1
            terminals_seen.add(caught[0][1])
        assert terminals_seen == set(range(len(full.terminal_outputs) + 1)), sync
        assert explore(ts, max_states=full.states_visited) == full


def test_explore_holds_only_touched_columns():
    # 8 triplets spread over a 1 x 20,000 matrix, one per worker: 256
    # states. Holding every column would cost 160 KB per state, 40 MB in all.
    cols = 20_000
    m = coo_from_triplets(1, cols, [(1, c, c) for c in range(1, cols + 1, 2_500)])
    ts = build_model([3], m, 8, "atomic_rmw")
    tracemalloc.start()
    try:
        report = explore(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.states_visited == 2**8
    assert report.terminal_outputs == {ts.sequential_result}
    assert report.matches_sequential and not report.deadlock_found
    assert peak < 2_000_000, peak
