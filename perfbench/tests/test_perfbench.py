"""Smoke-size tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_every_metric_with_its_unit(workload, trace):
    spec = _spec()
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_ratio 0.000000 (0 failed of ") for line in lines)
    assert any(line.startswith("warm-up round ") for line in lines)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        for name, unit in tracing.LAYER_METRICS:
            assert any(line.startswith(f"layer {name} ") and f" {unit} per round" in line
                       for line in lines), name
        assert any(line.startswith("trace.overhead_pct ") for line in lines)
    else:
        for m in wanted:
            assert any(line.startswith(f"{m['name']} ") and f" {m['unit']} (" in line
                       for line in lines), m["name"]
            assert result["metrics"][m["name"]]["value"] > 0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(str(tmp_path), "seq-cli", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_self_times_are_nonnegative_and_sum_to_the_root():
    import oraclekit
    import oraclekit.cli

    jobs = [job for workload in WORKLOADS for job in workloads.round_jobs(workload, 5, 0, SMOKE)]
    tracer = tracing.Tracer()
    cwd = os.getcwd()
    workdir = os.path.join(ROOT, ".perfbench", f"test-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for workload in WORKLOADS:
            workloads.write_inputs(workload, 5, workdir, SMOKE)
        os.chdir(workdir)
        tracer.install(oraclekit)
        try:
            for job in jobs:
                assert run_job_quietly(oraclekit, job, tracer) == 0, job.name
        finally:
            tracer.uninstall(oraclekit)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)
    assert oraclekit.cli.run_cli.__module__ == "oraclekit.cli"  # originals are back

    spans = tracer.spans
    own = tracing.self_times(spans)
    assert min(own) >= 0
    roots = [i for i, span in enumerate(spans) if span[3] == -1]
    assert len(roots) == len(jobs)
    assert sum(own) == pytest.approx(sum(spans[i][2] - spans[i][1] for i in roots), rel=1e-9)
    totals = tracing.layer_totals(spans, tracer.counts)
    for name, _unit in tracing.LAYER_METRICS:
        assert totals.get(name, 0) > 0, name


def run_job_quietly(package, job, tracer) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return tracer.call(f"job.{job.name}", package.cli.run_cli, list(job.argv))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_writes_byte_identical_inputs(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert workloads.write_inputs(workload, 11, str(a), SMOKE) == workloads.write_inputs(
        workload, 11, str(b), SMOKE)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_not_jobs(workload):
    one = workloads.input_files(workload, 1, SMOKE)
    two = workloads.input_files(workload, 2, SMOKE)
    assert one.keys() == two.keys()
    assert all(one[name] != two[name] for name in one)
    jobs_one = workloads.round_jobs(workload, 1, 0, SMOKE, nproc=2)
    jobs_two = workloads.round_jobs(workload, 2, 0, SMOKE, nproc=2)
    assert [(j.name, j.items) for j in jobs_one] == [(j.name, j.items) for j in jobs_two]


def test_thread_guard():
    workloads.check_policy("chunks:2", 2)
    workloads.check_policy("seq", 1)
    for policy in ("chunks:3", "steal:8", "per-element", "chunks:x"):
        with pytest.raises(ValueError):
            workloads.check_policy(policy, 2)
    with pytest.raises(ValueError):
        workloads.round_jobs("spmv-cli", 1, 0, SMOKE, nproc=1)


def test_references_agree_with_the_library_oracles():
    from oraclekit import ansv, cartesian, monotonic, spmv

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 30)
        s = [rng.randint(-5, 5) for _ in range(n)]
        assert workloads.cutpoints_ref(s) == monotonic.oracle_cutpoints(s)
        for left, direction in ((True, "left"), (False, "right")):
            want = [-1 if y is None else y for y in ansv.oracle_neighbors(s, direction).neighbors]
            assert workloads.nearest_smaller_ref(s, left) == want
        distinct = rng.sample(range(-100, 100), n)
        tree = cartesian.oracle_tree(distinct)
        assert workloads.cartesian_parent_ref(distinct) == [-1 if p is None else p for p in tree.parent]
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        cells = sorted(rng.sample(range(rows * cols), rng.randint(0, rows * cols)))
        trips = [(c // cols + 1, c % cols + 1, rng.choice((-3, -1, 2, 5))) for c in cells]
        x = [rng.randint(-9, 9) for _ in range(rows)]
        dense = spmv.to_dense(spmv.coo_from_triplets(rows, cols, trips))
        assert workloads.product_ref(cols, x, trips) == spmv.oracle_multiply_dense(x, dense)


def test_checkers_reject_wrong_output():
    refs = workloads.references("verify", 1, SMOKE)
    good = "c3.parallel_eq_seq pass cases=1\ntotal 1 passed, 0 failed\n"
    assert refs["check:c3par"](0, "", good)
    assert not refs["check:c3par"](1, "", good)
    assert not refs["check:c3par"](0, "", good.replace("0 failed", "1 failed"))
    _, cols, x, trips = workloads._explore_inputs(1)["atomic-5x4"]
    terminal = " ".join(map(str, workloads.product_ref(cols, x, trips)))
    good = ("states_visited 1296\ndeadlock_found false\nmatches_sequential true\n"
            f"terminal_count 1\nterminal {terminal}\n")
    explore = refs["explore:atomic-5x4"]
    assert explore(0, "", good)
    assert not explore(0, "", good.replace("states_visited 1296", "states_visited 1295"))
    assert not explore(0, "", good.replace("matches_sequential true", "matches_sequential false"))
    assert not explore(0, "", good.replace(f"terminal {terminal}", "terminal 1"))
    seq = workloads.references("seq-cli", 1, SMOKE)
    assert not seq["sort:uniform"](0, "0" * 64, None)


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_per_kind_metrics_take_each_kind_at_its_median():
    results = [{"name": "a", "items": 10, "seconds": t} for t in (1.0, 9.0, 2.0)]
    results += [{"name": "b", "items": 30, "seconds": t} for t in (3.0, 3.0, 0.1)]
    kinds = run.kind_medians(results)
    assert kinds == {"a": (10, 2.0), "b": (30, 3.0)}
    assert run.items_per_s(kinds) == 40 / 5.0
    assert run.job_p50(kinds) == 2.5


def test_speed_scale_maps_the_median_reference_to_its_nominal_time():
    results = [{"ref": t * run.REFERENCE_SECONDS} for t in (2.0, 9.0, 1.9)]
    assert run.speed_scale(results) == pytest.approx(0.5)
