"""oraclekit benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload seq-cli --seed 1 --seconds 20 --trace 0

Each set-up generates the seeded inputs in a process of its own, then starts
a fresh client interpreter that imports oraclekit from ``src`` and runs one
untimed warm-up job. The set-up runs ``SETUPS`` times and ``setup_s`` is the
median; the last client goes on to the timed closed loop (see client.py).
Every job's output is checked here, after the loop, against references
computed in workloads.py without oraclekit.

All times in the metrics are CPU seconds of the processes doing the work
(see client.py for why), scaled to a machine on which the client's
``reference`` work takes ``REFERENCE_SECONDS``: each measured time is
multiplied by ``REFERENCE_SECONDS`` over the median time of the reference
in the run. The host's speed drifts by more than the bounds within
minutes, and the scale removes the part of that drift that slows all
Python code alike. The report lines give the unscaled CPU and wall
figures beside the metrics. Per-job metrics are built from each job
kind's median over the rounds, so one slow moment moves one sample, not
the result.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it say the same for
people, with sample counts, and with ``--trace 1`` list every layer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
REFERENCE_SECONDS = 0.001  # the time of client.reference the metrics are scaled to
STEP_TIMEOUT = 60  # seconds for one generator, and a client's margin beyond its loop
TAIL_BEYOND = 10


def spec_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns (value, percentile, samples beyond). With too few samples it
    falls back to the maximum.
    """
    ordered = sorted(durations)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def kind_medians(results: list[dict], key: str = "seconds") -> dict[str, tuple[int, float]]:
    """Job name -> (items of one such job, median of ``key`` over its runs)."""
    times: dict[str, list[float]] = {}
    items: dict[str, int] = {}
    for r in results:
        times.setdefault(r["name"], []).append(r[key])
        items[r["name"]] = r["items"]
    return {name: (items[name], statistics.median(t)) for name, t in times.items()}


def items_per_s(kinds: dict[str, tuple[int, float]]) -> float:
    """Items of one round over the round's time, each job at its median."""
    return sum(items for items, _ in kinds.values()) / sum(t for _, t in kinds.values())


def job_p50(kinds: dict[str, tuple[int, float]]) -> float:
    """Median over job kinds of each kind's median time."""
    return statistics.median(t for _, t in kinds.values())


def speed_scale(results: list[dict]) -> float:
    """``REFERENCE_SECONDS`` over the median time of the reference work in ``results``."""
    return REFERENCE_SECONDS / statistics.median(r["ref"] for r in results)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _start_client(args, work: str, spans: str) -> subprocess.Popen:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "client.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", src, "--spans", spans]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.Popen(cmd, cwd=work, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def _read_json_line(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"client ended early with code {proc.wait()}")
    return json.loads(line)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def set_up_and_run(args, work: str, spans: str) -> tuple[list[tuple[float, float]], list[str], dict, dict]:
    """Set up ``SETUPS`` times; the last client runs the loop.

    Returns (CPU seconds, wall seconds) of each set-up, the input digests,
    the warm-up job's result and the loop's report. A set-up's CPU time is
    the generator's plus the client's up to ready.
    """
    gen = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", work] + (["--smoke"] if args.smoke else [])
    setup_times, digests = [], []
    for k in range(SETUPS):
        start = perf_counter()
        gen_cpu = children_cpu()
        done = subprocess.run(gen, stdout=subprocess.PIPE, text=True, check=True, timeout=STEP_TIMEOUT)
        gen_cpu = children_cpu() - gen_cpu
        digests.append(done.stdout.strip())
        client = _start_client(args, work, spans)
        # A hung client is killed; its missing report then ends the run.
        watchdog = threading.Timer(2 * args.seconds + STEP_TIMEOUT, client.kill)
        watchdog.start()
        try:
            ready = _read_json_line(client)
            setup_times.append((gen_cpu + ready["cpu"], perf_counter() - start))
            if k < SETUPS - 1:
                client.stdin.write("quit\n")
                client.stdin.flush()
                client.wait(timeout=STEP_TIMEOUT)
                continue
            client.stdin.write("go\n")
            client.stdin.flush()
            report = _read_json_line(client)
            client.wait(timeout=STEP_TIMEOUT)
            if client.returncode != 0:
                raise RuntimeError(f"client exited with code {client.returncode}")
            return setup_times, digests, ready["warmup"], report
        finally:
            watchdog.cancel()
            _stop(client)
    raise AssertionError("unreachable")


def check_results(results: list[dict], refs: dict) -> list[dict]:
    """The jobs whose exit code or output is wrong."""
    bad = []
    for r in results:
        checker = refs.get(r["name"])
        if checker is None or not checker(r["rc"], r["sha"], r["out"]):
            bad.append(r)
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description="oraclekit benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the tests")
    args = parser.parse_args()
    # On SIGTERM, unwind through the ``finally`` blocks that stop the client.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "oraclekit", "__init__.py")):
        print(f"error: no oraclekit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench")
    work = os.path.join(out_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")
    os.makedirs(work)
    try:
        setup_times, digests, warmup, report = set_up_and_run(args, work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sizes = workloads.SMOKE if args.smoke else workloads.Sizes()
    refs = workloads.references(args.workload, args.seed, sizes)
    results = report["results"]
    bad = check_results(results, refs)
    warm_ok = not check_results([warmup], refs)
    inputs_stable = len(set(digests)) == 1
    for r in bad[:5]:
        print(f"wrong output: job {r['name']} round {r['round']} exit {r['rc']} {r['err'].strip()}",
              file=sys.stderr)
    if not warm_ok:
        print("wrong output: warm-up job", file=sys.stderr)
    if not inputs_stable:
        print("error: set-ups wrote different inputs for one seed", file=sys.stderr)

    warm = [r for r in results if r["warm"]]
    timed = [r for r in results if not r["traced"] and not r["warm"]]
    durations = [r["seconds"] for r in timed]
    n = len(durations)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {report['rounds']} jobs {len(results)} loop {report['loop_seconds']:.2f} s "
          f"wall, {report['loop_cpu_seconds']:.2f} s CPU "
          f"python {sys.version.split()[0]} nproc {workloads.available_cpus()}")
    print(f"fail_ratio {len(bad) / len(results):.6f} ({len(bad)} failed of {len(results)} attempted)")

    print(f"warm-up round {sum(r['seconds'] for r in warm):.3f} s CPU, "
          f"{sum(r['wall'] for r in warm):.3f} s wall ({len(warm)} jobs, untimed, checked)")

    if args.trace:
        traced = [r for r in results if r["traced"]]
        overhead = 100.0 * (sum(r["seconds"] for r in traced) / sum(durations) - 1.0)
        per_round = report["rounds"]
        layers = {name: report["layers"].get(name, 0.0) / per_round
                  for name, _unit in tracing.LAYER_METRICS}
        layers["trace.overhead_pct"] = overhead
        print(f"trace.overhead_pct {overhead:.3f} % (traced against untraced job time over "
              f"{len(traced)} jobs, each run both ways back to back; "
              f"{report['spans']} spans in {os.path.relpath(spans, ROOT)})")
        for name, unit in tracing.LAYER_METRICS:
            print(f"layer {name} {layers[name]:.6f} {unit} per round (n={per_round} rounds)")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spec_metrics("per_layer").items()}
    else:
        tail_value, tail_pct, beyond = tail(durations)
        kinds, wall_kinds = kind_medians(timed), kind_medians(timed, "wall")
        scale = speed_scale(timed)
        cpu = {
            "setup_s": statistics.median(c for c, _wall in setup_times),
            "items_per_s": items_per_s(kinds),
            "job_p50_s": job_p50(kinds),
            "job_tail_s": tail_value,
        }
        wall = {
            "setup_s": statistics.median(w for _c, w in setup_times),
            "items_per_s": items_per_s(wall_kinds),
            "job_p50_s": job_p50(wall_kinds),
            "job_tail_s": tail([r["wall"] for r in timed])[0],
        }
        values = {name: v / scale if name == "items_per_s" else v * scale for name, v in cpu.items()}
        values["peak_rss_mb"] = report["peak_rss_kb"] / 1024.0
        per_kind = f"{len(kinds)} job kinds at their medians over {report['rounds']} rounds"
        notes = {
            "setup_s": f"median of {SETUPS} set-ups, CPU " + " ".join(f"{c:.3f}" for c, _w in setup_times),
            "items_per_s": f"{per_kind}; {sum(r['items'] for r in timed)} items in {n} jobs",
            "job_p50_s": f"median of {per_kind}; n={n} jobs",
            "job_tail_s": f"p{tail_pct:.1f}, {beyond} jobs beyond, n={n} jobs",
        }
        for name in notes:
            notes[name] += f"; unscaled CPU {cpu[name]:.6g}, wall {wall[name]:.6g}"
        notes["peak_rss_mb"] = "client process, ru_maxrss"
        print(f"reference {1000 * REFERENCE_SECONDS / scale:.4f} ms CPU, median over {n} jobs; "
              f"times scaled by {scale:.4f} to a {1000 * REFERENCE_SECONDS:.3f}-ms reference")
        units = spec_metrics("end_to_end")
        for name, unit in units.items():
            print(f"{name} {values[name]:.6f} {unit} ({notes[name]})")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    correct = not bad and warm_ok and inputs_stable
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
