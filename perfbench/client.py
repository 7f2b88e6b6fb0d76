"""The benchmark's client: one closed loop of ``cli.run_cli`` calls in this process.

Started by ``run.py`` with the input directory as its working directory and
the checkout's ``src`` on ``PYTHONPATH``. It imports oraclekit, runs one
untimed warm-up job, and prints ``ready`` with the warm-up's result. It
then reads one line from stdin: ``quit`` ends it, ``go`` starts the timed
loop. The loop starts with one warm-up round, then runs whole rounds of
jobs, one after another, until ``--seconds`` have passed, and prints one
JSON object with every job's times, exit code and output digest. Output
checks happen in ``run.py``.

A job's time is the CPU time of this process and its reaped children
(``cpu_seconds``), not wall time: on a virtual machine sharing its host,
wall time also counts the time the host runs other guests on this one's
CPUs (steal), which differs from run to run. Wall time is kept beside it.
Before each job, untimed, the client also times ``reference``: fixed
pure-Python work that never touches oraclekit, whose time tracks how fast
the machine runs Python at that moment (see run.py).

With ``--trace 1`` every job runs twice, untraced and traced, and the JSON
also carries the per-layer totals of the traced runs. The spans are
written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter, process_time, thread_time

import tracing
import workloads

# Outputs up to this size travel back whole; larger ones only as a digest.
SMALL_OUTPUT = 4096


def _import_oraclekit(src: str):
    import oraclekit
    import oraclekit.cli  # noqa: F401  (run_cli lives here)

    where = os.path.realpath(oraclekit.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"oraclekit imported from {where}, not from {src}")
    return oraclekit


def cpu_seconds() -> float:
    """CPU time of this process, all its threads, and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reference() -> int:
    """Fixed pure-Python work, about a millisecond: dict, list, int and sort."""
    counts: dict[int, int] = {}
    keys = []
    for i in range(3000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        keys.append(k)
    keys.sort()
    return len(counts) + keys[-1]


def run_job(package, job: workloads.Job, tracer=None) -> dict:
    start_ref = thread_time()
    reference()
    ref = thread_time() - start_ref
    out, err = io.StringIO(), io.StringIO()
    start_cpu = cpu_seconds()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            rc = package.cli.run_cli(list(job.argv))
        else:
            rc = tracer.call(f"job.{job.name}", package.cli.run_cli, list(job.argv))
    wall = perf_counter() - start
    seconds = cpu_seconds() - start_cpu
    text = out.getvalue()
    return {
        "name": job.name,
        "seconds": seconds,
        "wall": wall,
        "ref": ref,
        "rc": rc,
        "sha": hashlib.sha256(text.encode()).hexdigest(),
        "out": text if len(text) <= SMALL_OUTPUT else None,
        "err": err.getvalue()[:SMALL_OUTPUT],
        "items": job.items,
    }


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans", required=True, help="file the traced run writes its spans to")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sizes = workloads.SMOKE if args.smoke else workloads.Sizes()

    package = _import_oraclekit(args.src)
    warm = run_job(package, workloads.round_jobs(args.workload, args.seed, 0, sizes)[0])
    # CPU time since this process started: interpreter start, import, warm-up.
    _emit({"ready": True, "warmup": warm, "cpu": cpu_seconds()})
    if sys.stdin.readline().strip() != "go":
        return

    tracer = tracing.Tracer() if args.trace else None
    # A traced run runs every job twice in a row, untraced and traced, in an
    # order that flips each round, so both runs of a pair see the same machine.
    modes = [(False,)] if tracer is None else [(False, True), (True, False)]
    # One untimed round first, so that every job kind has run once before
    # timing starts: its first-call costs would otherwise set the tail.
    results = []
    for job in workloads.round_jobs(args.workload, args.seed, 0, sizes):
        result = run_job(package, job)
        result.update(traced=False, round=0, warm=True)
        results.append(result)
    rounds = 0
    start, start_cpu = perf_counter(), cpu_seconds()
    while rounds == 0 or perf_counter() - start < args.seconds:
        for job in workloads.round_jobs(args.workload, args.seed, rounds + 1, sizes):
            for traced in modes[rounds % len(modes)]:
                if traced:
                    tracer.install(package)
                try:
                    result = run_job(package, job, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall(package)
                result.update(traced=traced, round=rounds + 1, warm=False)
                results.append(result)
        rounds += 1

    report = {
        "results": results,
        "rounds": rounds,
        "loop_seconds": perf_counter() - start,
        "loop_cpu_seconds": cpu_seconds() - start_cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        spans = tracer.spans
        report["layers"] = tracing.layer_totals(spans, tracer.counts)
        report["spans"] = len(spans)
        write_spans(args.spans, spans)
    _emit(report)


if __name__ == "__main__":
    main()
