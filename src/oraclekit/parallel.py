"""Concurrent sparse multiplication and an interleaving explorer.

Two verification layers for the same loop:

* ``multiply_parallel`` runs real threads under pluggable work
  allocation policies. Its workers run on one process-wide pool of at
  most ``MAX_WORKERS`` (64) threads, started on first use and reused by
  every later call. Workers share the read-only inputs, accumulate
  into private partial vectors, and a join barrier precedes a merge in
  worker-id order, so the result is race-free by construction: whenever
  it and ``multiply_seq`` both return, they are equal. Under claimed
  policies a worker's partial sums depend on the schedule, so an
  intermediate sum near 2^63 can overflow in one run and not in another.

* ``build_model``/``explore`` abstract the loop body ``y[c] += x[r]*v``
  into atomic actions and enumerate every interleaving of a small
  instance, reporting all reachable terminal outputs, deadlocks, and
  whether the terminal set collapses to the sequential result. The
  ``none_split_rw`` mode splits each update into a read action and a
  write action using the stale read, which lets the explorer exhibit
  lost updates instead of merely asserting their absence.
"""

from __future__ import annotations

import operator
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

from .errors import ConfigError, DimensionError, ModelTooLargeError
from .spmv import CooMatrix, _check64, _fits64, accumulate, multiply_seq

__all__ = [
    "MAX_WORKERS",
    "SYNC_MODES",
    "AllocationPolicy",
    "ExplorationReport",
    "TransitionSystem",
    "build_model",
    "explore",
    "multiply_parallel",
]

# Hard cap on workers per product; it covers the 64-triplet maximum of
# ``propcheck.gen_coo``, so per_element still runs one worker per triplet
# on every property input.
MAX_WORKERS = 64
_MAX_MODEL_TRIPLETS = 32  # largest triplet count ``build_model`` abstracts

# Every product's workers run here; threads start on first use and stay.
_POOL = ThreadPoolExecutor(MAX_WORKERS)

# Action opcodes for the explorer.
_ADD, _ACQUIRE, _RELEASE, _READ, _WRITE = _OPCODES = range(5)

# Each sync mode's update of one triplet's cell; _ADD and _WRITE carry its delta.
_UPDATES = {
    "atomic_rmw": (_ADD,),
    "lock_per_cell": (_ACQUIRE, _ADD, _RELEASE),
    "none_split_rw": (_READ, _WRITE),
}
SYNC_MODES = tuple(_UPDATES)


@dataclass(frozen=True)
class AllocationPolicy:
    """How triplet indices are assigned to workers."""

    kind: str  # "per_element", "static_chunks", or "dynamic_stealing"
    workers: Optional[int] = None

    @classmethod
    def per_element(cls) -> "AllocationPolicy":
        return cls("per_element")

    @classmethod
    def static_chunks(cls, workers: int) -> "AllocationPolicy":
        return cls("static_chunks", workers)

    @classmethod
    def dynamic_stealing(cls, workers: int) -> "AllocationPolicy":
        return cls("dynamic_stealing", workers)


def _check_workers(workers: Optional[int]) -> int:
    if workers is None or not 1 <= workers <= MAX_WORKERS:
        raise ConfigError(f"need 1 to {MAX_WORKERS} workers, got {workers}")
    return workers


def _chunks(nnz: int, workers: int) -> list[range]:
    """Contiguous ranges covering 0..nnz-1 in order, sizes differing by at
    most one; surplus workers get empty ranges."""
    q, rem = divmod(nnz, workers)
    bounds = [w * q + min(w, rem) for w in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


class _ClaimCounter:
    """Shared index dispenser: hands out 0..limit-1 exactly once each,
    then ``limit`` to every later claim, so ``iter(claim, limit)`` ends
    in every worker."""

    def __init__(self, limit: int) -> None:
        self._next = 0
        self._limit = limit
        self._lock = threading.Lock()

    def claim(self) -> int:
        # Nothing is called while the lock is held; a shared iterator's
        # next() under it measured several times slower with two workers.
        with self._lock:
            i = self._next
            if i < self._limit:
                self._next = i + 1
            return i


def multiply_parallel(
    x: Sequence[int], m: CooMatrix, policy: AllocationPolicy
) -> list[int]:
    """Multiply with real threads; whenever this and ``multiply_seq`` both
    return, their results are equal.

    Each worker is one pool task accumulating into a private length-C
    vector; once all have finished, the first failure in worker-id order
    is raised, else partials are added onto worker 0's in worker-id order.
    static_chunks gives each of ``policy.workers`` workers one contiguous
    slice of the triplets. dynamic_stealing runs ``policy.workers``
    workers, and per_element ``min(nnz, MAX_WORKERS)``, that claim one
    triplet at a time from a shared counter; there a partial sum near the
    int64 limit may overflow under one schedule and not under another.
    """
    if len(x) != m.rows:
        raise DimensionError(f"vector length {len(x)} != matrix rows {m.rows}")
    rs, cs, vs = m.row_idx, m.col_idx, m.vals
    nnz = len(vs)

    if policy.kind == "per_element":
        workers = min(nnz, MAX_WORKERS)
    elif policy.kind in ("static_chunks", "dynamic_stealing"):
        workers = _check_workers(policy.workers)
    else:
        raise ConfigError(f"unknown allocation policy kind {policy.kind!r}")

    if policy.kind == "static_chunks":
        chunks = _chunks(nnz, workers)  # islice, not a slice: no copy per chunk
        tasks = [islice(zip(rs, cs, vs), k.start, k.stop) for k in chunks]
    else:
        counter = _ClaimCounter(nnz)
        tasks = [
            map(lambda k: (rs[k], cs[k], vs[k]), iter(counter.claim, nnz))
            for _ in range(workers)
        ]

    x = [0, *x]  # accumulate's vectors carry an unused slot 0
    partials = [[0] * (m.cols + 1) for _ in range(workers)]
    futures = [_POOL.submit(accumulate, p, x, t) for p, t in zip(partials, tasks)]
    wait(futures)  # the join barrier: every worker finishes before any raise
    for f in futures:
        f.result()  # re-raises the first worker failure in worker-id order

    y, *rest = partials or [[0] * (m.cols + 1)]
    for partial in rest:
        y = list(map(operator.add, y, partial))
        if not _fits64(y):  # name the first overflow in worker, then column, order
            for c, t in enumerate(y):
                _check64(t, f"column {c} merged sum")
    del y[0]
    return y


@dataclass(frozen=True)
class TransitionSystem:
    """Per-worker atomic ``(opcode, cell, delta)`` actions; cells index ``sequential_result``."""

    worker_actions: tuple[tuple[tuple[int, int, int], ...], ...]
    sequential_result: tuple[int, ...]


def build_model(
    x: Sequence[int], m: CooMatrix, workers: int, sync_mode: str
) -> TransitionSystem:
    """Abstract the multiplication into a transition system.

    Work is split with static_chunks(workers), and each triplet becomes
    its sync mode's update from ``_UPDATES``.
    """
    if sync_mode not in _UPDATES:
        raise ConfigError(f"unknown sync mode {sync_mode!r}")
    _check_workers(workers)
    nnz = len(m.vals)
    if nnz > _MAX_MODEL_TRIPLETS:
        raise ModelTooLargeError(
            f"{nnz} triplets exceed the model cap of {_MAX_MODEL_TRIPLETS}"
        )
    sequential = tuple(multiply_seq(x, m))  # checks x's length; raises on overflow

    rs, cs, vs = m.row_idx, m.col_idx, m.vals
    worker_actions = []
    for chunk in _chunks(nnz, workers):
        actions = []
        for k in chunk:
            c, delta = cs[k] - 1, x[rs[k] - 1] * vs[k]
            for op in _UPDATES[sync_mode]:
                actions.append((op, c, delta if op in (_ADD, _WRITE) else 0))
        worker_actions.append(tuple(actions))
    return TransitionSystem(tuple(worker_actions), sequential)


@dataclass(frozen=True)
class ExplorationReport:
    """Everything the exhaustive interleaving search observed."""

    states_visited: int
    terminal_outputs: frozenset[tuple[int, ...]]
    deadlock_found: bool
    matches_sequential: bool


def explore(ts: TransitionSystem, max_states: int = 1_000_000) -> ExplorationReport:
    """Enumerate every interleaving of the model's atomic actions.

    Depth-first search with visited-state memoization over the K cells
    some action touches, renumbered ``0..K-1``; the other columns of the
    ``len(ts.sequential_result)``-wide output stay 0 and are filled back
    into each terminal. A state is one flat tuple: worker program counters
    ``[0:W]``, cells ``[W:W+K]``, then a lock bit per cell and a temp per
    worker, each only if some opcode uses it. A successor copies the state
    into a list, sets the one or two slots the action changes and freezes
    it; each popped state is hashed once, by the ``add`` to the visited set.
    Raises ConfigError, before the search, on a cell outside the output or
    an opcode not among the five, and ModelTooLargeError with partial
    statistics when more than ``max_states`` states are visited.
    """
    width = len(ts.sequential_result)
    touched = sorted({cell for acts in ts.worker_actions for _, cell, _ in acts})
    ops = {op for acts in ts.worker_actions for op, _, _ in acts}
    if touched and not 0 <= touched[0] <= touched[-1] < width:
        raise ConfigError(f"model cells span {touched[0]}..{touched[-1]}, outside range({width})")
    if not ops.issubset(_OPCODES):
        raise ConfigError(f"model has unknown opcodes: {sorted(ops.difference(_OPCODES))}")
    slot = {cell: k for k, cell in enumerate(touched)}
    actions = [[(op, slot[c], d) for op, c, d in acts] for acts in ts.worker_actions]
    nworkers = len(actions)
    lengths = tuple(map(len, actions))
    ncells = len(touched)
    y0, lock0 = nworkers, nworkers + ncells
    temp0 = lock0 + (0 if ops.isdisjoint((_ACQUIRE, _RELEASE)) else ncells)

    visited: set = set()
    terminals: set = set()
    deadlock = False
    stack = [(0,) * (temp0 + (0 if ops.isdisjoint((_READ, _WRITE)) else nworkers))]
    while stack:
        state = stack.pop()
        seen = len(visited)
        visited.add(state)
        if len(visited) == seen:
            continue
        if len(visited) > max_states:
            raise ModelTooLargeError(
                f"exploration exceeded {max_states} states",
                states_visited=len(visited),
                terminal_outputs_seen=len(terminals),
            )
        top = len(stack)
        for w in range(nworkers):
            pc = state[w]
            if pc >= lengths[w]:
                continue
            op, cell, delta = actions[w][pc]
            if op == _ACQUIRE and state[lock0 + cell]:
                continue  # blocked until the holder releases
            nxt = list(state)
            nxt[w] = pc + 1
            if op == _ADD:
                nxt[y0 + cell] += delta
            elif op == _ACQUIRE:
                nxt[lock0 + cell] = 1
            elif op == _RELEASE:
                nxt[lock0 + cell] = 0
            elif op == _READ:
                nxt[temp0 + w] = state[y0 + cell]
            else:  # _WRITE: stale read + delta, temp dies afterwards
                nxt[y0 + cell] = state[temp0 + w] + delta
                nxt[temp0 + w] = 0
            stack.append(tuple(nxt))
        if len(stack) == top:  # no action enabled: every worker ended, or a deadlock
            if state[:y0] == lengths:
                terminals.add(state[y0:lock0])
            else:
                deadlock = True

    # Terminals at full width: an untouched column reads the 0 past the cells.
    pick = [slot.get(c, ncells) for c in range(width)]
    outputs = {tuple(map((*cells, 0).__getitem__, pick)) for cells in terminals}
    matches = (not deadlock) and outputs == {ts.sequential_result}
    return ExplorationReport(
        states_visited=len(visited),
        terminal_outputs=frozenset(outputs),
        deadlock_found=deadlock,
        matches_sequential=matches,
    )
