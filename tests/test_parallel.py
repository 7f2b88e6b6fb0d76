import sys
import threading

import pytest

from oraclekit import parallel
from oraclekit.errors import ConfigError, DimensionError, ModelTooLargeError
from oraclekit.parallel import (
    MAX_WORKERS,
    AllocationPolicy,
    TransitionSystem,
    _chunks,
    build_model,
    explore,
    multiply_parallel,
)
from oraclekit.propcheck import GenConfig, gen_coo
from oraclekit.spmv import INT64_MAX, accumulate, coo_from_triplets, multiply_seq

_ACQUIRE = 1  # opcode used when hand-building explorer inputs


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


def test_model_action_shapes():
    m = coo_from_triplets(2, 2, [(1, 1, 3), (2, 2, 4)])
    flat = lambda ts: sum(len(a) for a in ts.worker_actions)
    assert flat(build_model([1, 1], m, 2, "atomic_rmw")) == 2
    assert flat(build_model([1, 1], m, 2, "lock_per_cell")) == 6
    assert flat(build_model([1, 1], m, 2, "none_split_rw")) == 4
    ts = build_model([5, 7], m, 2, "atomic_rmw")
    assert ts.sequential_result == (15, 28)


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
        cols=1,
        sync_mode="lock_per_cell",
        sequential_result=(0,),
    )
    report = explore(ts)
    assert report.deadlock_found
    assert not report.matches_sequential
    assert report.terminal_outputs == set()
