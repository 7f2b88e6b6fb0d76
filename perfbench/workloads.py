"""Seeded inputs, job lists and reference outputs for the three workloads.

This module never imports oraclekit: the references it computes are
independent of every layer the benchmark times.

A workload is a list of input files plus a *round*: a fixed list of jobs,
each one ``oraclekit`` command line. The client repeats the round until
its time is up, so every run has the same job mix whatever its length.

Run as a script to write a workload's inputs into a directory::

    python3 perfbench/workloads.py --workload seq-cli --seed 1 --out DIR

It prints the SHA-256 of everything it wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("seq-cli", "spmv-cli", "verify")

# Sizes of the full benchmark. Tests pass smaller ones.
SEQ_N = 100_000
SPMV_SHAPES = (
    # name, rows, cols, nnz: a square matrix, and a wide one whose
    # length-C partial vectors and their merge dominate the threaded product.
    ("square", 1_000, 1_000, 200_000),
    ("wide", 1_000, 100_000, 200_000),
)
CHECK_CASES = 300
CHECK_MAX_LEN = 200
PARALLEL_CASES = 1

# Policies the spmv-cli workload runs on its generated matrices. per-element
# is never among them: it starts one OS thread per stored triplet.
SPMV_POLICIES = ("seq", "chunks:2", "steal:2")

# Property families of the registry, one check job each per round.
CHECK_FAMILIES = (
    ("c1a", ("c1a.nonempty", "c1a.begin_end", "c1a.bounds", "c1a.monotonic",
             "c1a.maximal", "c1a.oracle_eq")),
    ("c1b", ("c1b.merge_sorted", "c1b.sorted", "c1b.permutation")),
    ("c2a", ("c2a.index", "c2a.value", "c2a.smallest", "c2a.oracle_eq")),
    ("c2b", ("c2b.binary", "c2b.heap", "c2b.traversal", "c2b.oracle_eq")),
    ("c3seq", ("c3.seq_correct", "c3.no_concurrency_issues", "c3.race_witness")),
)
FIXED_PROPERTIES = ("c3.no_concurrency_issues", "c3.race_witness")


def _full(rows: int, cols: int) -> tuple:
    return tuple((r, c) for r in range(1, rows + 1) for c in range(1, cols + 1))


def _blocks(per_worker: int, workers: int) -> tuple:
    return tuple((r, (r - 1) // per_worker + 1) for r in range(1, per_worker * workers + 1))


# Explorer models: (name, rows, cols, cells, workers, sync, states). The
# structure is fixed, so the number of states the explorer must visit is the
# same for every seed; values come from the seed. Each worker of the
# none_split_rw models owns its own columns, so the racy update never meets
# another worker and the verdict stays "matches".
EXPLORE_MODELS = (
    ("atomic-5x4", 5, 4, _full(5, 4), 4, "atomic_rmw", 1_296),
    ("lock-4x3", 4, 3, _full(4, 3), 3, "lock_per_cell", 1_513),
    ("lock-4x4", 4, 4, _full(4, 4), 4, "lock_per_cell", 16_049),
    ("split-16x4", 16, 4, _blocks(4, 4), 4, "none_split_rw", 6_561),
    ("split-20x4", 20, 4, _blocks(5, 4), 4, "none_split_rw", 14_641),
)


@dataclass(frozen=True)
class Job:
    """One ``oraclekit`` invocation; paths in ``argv`` are relative to the input directory."""

    name: str
    argv: tuple[str, ...]
    items: int  # input units: elements, stored triplets, or cases plus models


@dataclass(frozen=True)
class Sizes:
    seq_n: int = SEQ_N
    spmv_shapes: tuple = SPMV_SHAPES
    check_cases: int = CHECK_CASES


SMOKE = Sizes(
    seq_n=2_000,
    spmv_shapes=(("square", 50, 50, 1_000), ("wide", 20, 2_000, 1_000)),
    check_cases=10,
)


def _rng(seed: int, what: str) -> random.Random:
    return random.Random(f"{seed}:{what}")


# ---------------------------------------------------------------- inputs

def _seq_shapes(seed: int, n: int) -> dict[str, list[int]]:
    rng = _rng(seed, "seq")
    uniform = [rng.randint(-10**9, 10**9) for _ in range(n)]
    runs: list[int] = []
    ascending = True
    while len(runs) < n:
        seg = sorted(rng.randint(-10**9, 10**9) for _ in range(rng.randint(500, 1500)))
        if not ascending:
            seg.reverse()
        runs.extend(seg)
        ascending = not ascending
    del runs[n:]
    decreasing = []
    v = rng.randint(0, 10**9)
    for _ in range(n):
        decreasing.append(v)
        v -= rng.randint(1, 100)
    start = rng.randint(-10**9, 10**9 - n)
    perm = list(range(start, start + n))
    rng.shuffle(perm)
    return {"uniform": uniform, "runs": runs, "decreasing": decreasing, "perm": perm}


def _nonzero(rng: random.Random, cap: int) -> int:
    """Uniform over [-cap, -1] and [1, cap]."""
    k = rng.randrange(2 * cap)
    return k - cap if k < cap else k - cap + 1


def _matrix(rng: random.Random, rows: int, cells, cap: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    x = [_nonzero(rng, cap) for _ in range(rows)]
    triplets = [(r, c, _nonzero(rng, cap)) for r, c in cells]
    return x, triplets


def _spmv_inputs(seed: int, shapes) -> dict[str, tuple]:
    out = {}
    for name, rows, cols, nnz in shapes:
        rng = _rng(seed, f"spmv:{name}")
        ids = sorted(rng.sample(range(rows * cols), nnz))
        cells = [(i // cols + 1, i % cols + 1) for i in ids]
        out[name] = (rows, cols) + _matrix(rng, rows, cells, 10**6)
    return out


def _explore_inputs(seed: int) -> dict[str, tuple]:
    out = {}
    for name, rows, cols, cells, _workers, _sync, _states in EXPLORE_MODELS:
        rng = _rng(seed, f"explore:{name}")
        out[name] = (rows, cols) + _matrix(rng, rows, cells, 9)
    return out


def _seq_text(s: list[int]) -> str:
    return " ".join(map(str, s)) + "\n"


def _coo_text(rows: int, cols: int, triplets) -> str:
    lines = [f"{rows} {cols} {len(triplets)}"]
    lines.extend(f"{r} {c} {v}" for r, c, v in triplets)
    return "\n".join(lines) + "\n"


def input_files(workload: str, seed: int, sizes: Sizes = Sizes()) -> dict[str, str]:
    """File name -> text of every input the workload reads."""
    files = {}
    if workload == "seq-cli":
        for name, s in _seq_shapes(seed, sizes.seq_n).items():
            files[f"{name}.seq"] = _seq_text(s)
    elif workload == "spmv-cli":
        for name, (rows, cols, x, trips) in _spmv_inputs(seed, sizes.spmv_shapes).items():
            files[f"{name}.vec"] = _seq_text(x)
            files[f"{name}.coo"] = _coo_text(rows, cols, trips)
    elif workload == "verify":
        for name, (rows, cols, x, trips) in _explore_inputs(seed).items():
            files[f"{name}.vec"] = _seq_text(x)
            files[f"{name}.coo"] = _coo_text(rows, cols, trips)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


def write_inputs(workload: str, seed: int, out_dir: str, sizes: Sizes = Sizes()) -> str:
    """Write the inputs into ``out_dir``; return the SHA-256 over names and bytes."""
    digest = hashlib.sha256()
    for name, text in sorted(input_files(workload, seed, sizes).items()):
        data = text.encode("ascii")
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------- job lists

def check_policy(policy: str, nproc: int) -> None:
    """Refuse a policy that could start more threads than the machine has cores."""
    if policy == "seq":
        return
    kind, _, workers = policy.partition(":")
    if kind not in ("chunks", "steal") or not workers.isdigit():
        raise ValueError(f"policy {policy!r} is not allowed on generated matrices")
    if int(workers) > nproc:
        raise ValueError(f"policy {policy!r} needs {workers} workers but nproc is {nproc}")


def check_seed(seed: int, round_index: int, family: str) -> int:
    """Seed of one check job; each round draws fresh cases."""
    return _rng(seed, f"check:{family}:{round_index}").randrange(1, 2**31)


def round_jobs(workload: str, seed: int, round_index: int, sizes: Sizes = Sizes(),
               nproc: Optional[int] = None) -> list[Job]:
    """The jobs of one round, in the order the client runs them."""
    if workload == "seq-cli":
        n = sizes.seq_n
        jobs = []
        for shape in ("uniform", "runs", "decreasing", "perm"):
            f = f"{shape}.seq"
            jobs.append(Job(f"cutpoints:{shape}", ("cutpoints", f), n))
            jobs.append(Job(f"sort:{shape}", ("sort", "--verify", f), n))
            jobs.append(Job(f"ansv-left:{shape}", ("ansv", "--dir", "left", f), n))
            jobs.append(Job(f"ansv-right:{shape}", ("ansv", "--dir", "right", f), n))
            if shape in ("decreasing", "perm"):  # cartesian needs distinct values
                jobs.append(Job(f"cartesian:{shape}", ("cartesian", f), n))
        return jobs
    if workload == "spmv-cli":
        nproc = nproc if nproc is not None else available_cpus()
        jobs = []
        for name, _rows, _cols, nnz in sizes.spmv_shapes:
            for policy in SPMV_POLICIES:
                check_policy(policy, nproc)
                jobs.append(Job(f"spmv-{policy}:{name}",
                                ("spmv", f"{name}.vec", f"{name}.coo", "--policy", policy), nnz))
        return jobs
    if workload == "verify":
        # Explore jobs first: the warm-up runs the first job, and their cost
        # does not depend on the seed, unlike a check job's random cases.
        jobs = [
            Job(f"explore:{name}", ("explore", f"{name}.vec", f"{name}.coo",
                                    "--workers", str(workers), "--sync", sync), 1)
            for name, _rows, _cols, _cells, workers, sync, _states in EXPLORE_MODELS
        ]
        common = ("--max-len", str(CHECK_MAX_LEN))
        for family, names in CHECK_FAMILIES:
            s = check_seed(seed, round_index, family)
            items = sum(1 if p in FIXED_PROPERTIES else sizes.check_cases for p in names)
            jobs.append(Job(f"check:{family}", ("check", *names, "--cases", str(sizes.check_cases),
                                                "--seed", str(s), *common), items))
        s = check_seed(seed, round_index, "c3par")
        jobs.append(Job("check:c3par", ("check", "c3.parallel_eq_seq", "--cases",
                                        str(PARALLEL_CASES), "--seed", str(s), *common),
                        PARALLEL_CASES))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------- references

def cutpoints_ref(s: list[int]) -> list[int]:
    """Maximal monotonic cutpoints, straight from the definition.

    A run is strictly increasing or nonincreasing; its direction is fixed by
    its first pair, and it ends where the next pair disagrees.
    """
    n = len(s)
    cut = [0]
    start = 0
    while start < n:
        end = start + 1
        if end < n:
            up = s[start] < s[end]
            end += 1
            while end < n and (s[end - 1] < s[end]) == up:
                end += 1
        cut.append(end)
        start = end
    return cut


def nearest_smaller_ref(s: list[int], left: bool) -> list[int]:
    """0-based nearest strictly smaller index per element, -1 for none.

    Pointer jumping over already-answered neighbours rather than a stack,
    so it shares no code shape with the library's scan.
    """
    n = len(s)
    out = [-1] * n
    order = range(n) if left else range(n - 1, -1, -1)
    for i in order:
        j = i - 1 if left else i + 1
        v = s[i]
        while 0 <= j < n and s[j] >= v:
            j = out[j]
        out[i] = j if 0 <= j < n else -1
    return out


def cartesian_parent_ref(s: list[int]) -> list[int]:
    """Parent per node of the min-rooted Cartesian tree, -1 for the root.

    The parent is the larger of the two nearest smaller values.
    """
    left = nearest_smaller_ref(s, True)
    right = nearest_smaller_ref(s, False)
    parent = []
    for l, r in zip(left, right):
        if l < 0 or r < 0:
            parent.append(max(l, r))
        else:
            parent.append(l if s[l] > s[r] else r)
    return parent


def product_ref(cols: int, x: list[int], triplets) -> list[int]:
    """Vector-matrix product accumulated in a dict keyed by column."""
    acc: dict[int, int] = {}
    for r, c, v in triplets:
        acc[c] = acc.get(c, 0) + x[r - 1] * v
    return [acc.get(c, 0) for c in range(1, cols + 1)]


def _one_based(idx: list[int]) -> str:
    return " ".join(str(i + 1) for i in idx)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (exit code, SHA-256 of stdout, stdout or None when large) -> correct
Checker = Callable[[int, str, Optional[str]], bool]


def _expect_text(text: str) -> Checker:
    want = _sha(text)
    return lambda rc, sha, _out: rc == 0 and sha == want


def _expect_explore(states: int, terminal: list[int]) -> Checker:
    want = "terminal " + " ".join(map(str, terminal))

    def check(rc: int, _sha: str, out: Optional[str]) -> bool:
        if out is None:
            return False
        lines = out.splitlines()
        keys = dict(line.partition(" ")[::2] for line in lines[:4])
        return (
            rc == 0
            and keys.get("states_visited") == str(states)
            and keys.get("deadlock_found") == "false"
            and keys.get("matches_sequential") == "true"
            and keys.get("terminal_count") == "1"
            and lines[4:] == [want]
        )

    return check


def _expect_check(names) -> Checker:
    def check(rc: int, _sha: str, out: Optional[str]) -> bool:
        if out is None:
            return False
        lines = out.splitlines()
        if rc != 0 or len(lines) != len(names) + 1:
            return False
        if lines[-1] != f"total {len(names)} passed, 0 failed":
            return False
        return all(line.startswith(f"{name} pass cases=") for name, line in zip(names, lines))

    return check


def references(workload: str, seed: int, sizes: Sizes = Sizes()) -> dict[str, Checker]:
    """Job name -> output checker, for every job a round can hold."""
    refs: dict[str, Checker] = {}
    if workload == "seq-cli":
        flags = {
            "cutpoints": ("non_empty", "begin_to_end", "within_bounds", "monotonic", "right_maximal"),
            "cartesian": ("binary_ok", "heap_ok", "traversal_ok"),
        }
        for shape, s in _seq_shapes(seed, sizes.seq_n).items():
            cut = " ".join(map(str, cutpoints_ref(s)))
            refs[f"cutpoints:{shape}"] = _expect_text(
                cut + "\n" + "".join(f"{k} true\n" for k in flags["cutpoints"]))
            refs[f"sort:{shape}"] = _expect_text(
                _seq_text(sorted(s)) + "sorted true\npermutation true\n")
            refs[f"ansv-left:{shape}"] = _expect_text(_one_based(nearest_smaller_ref(s, True)) + "\n")
            refs[f"ansv-right:{shape}"] = _expect_text(_one_based(nearest_smaller_ref(s, False)) + "\n")
            if len(set(s)) == len(s):
                refs[f"cartesian:{shape}"] = _expect_text(
                    _one_based(cartesian_parent_ref(s)) + "\n"
                    + "".join(f"{k} true\n" for k in flags["cartesian"]))
    elif workload == "spmv-cli":
        for name, (_rows, cols, x, trips) in _spmv_inputs(seed, sizes.spmv_shapes).items():
            want = _seq_text(product_ref(cols, x, trips))
            for policy in SPMV_POLICIES:
                refs[f"spmv-{policy}:{name}"] = _expect_text(want)
    elif workload == "verify":
        for family, names in CHECK_FAMILIES:
            refs[f"check:{family}"] = _expect_check(names)
        refs["check:c3par"] = _expect_check(("c3.parallel_eq_seq",))
        inputs = _explore_inputs(seed)
        for name, _rows, _cols, _cells, _workers, _sync, states in EXPLORE_MODELS:
            _, cols, x, trips = inputs[name]
            refs[f"explore:{name}"] = _expect_explore(states, product_ref(cols, x, trips))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return refs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="use the small test sizes")
    args = parser.parse_args()
    print(write_inputs(args.workload, args.seed, args.out, SMOKE if args.smoke else Sizes()))


if __name__ == "__main__":
    main()
