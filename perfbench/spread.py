"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads seq-cli spmv-cli --seeds 1-10

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), and their
distance as a share of the median next to the bound in BENCHMARK.json.
``--out FILE`` also runs one traced run per workload and writes all of it,
with the Python version and CPU count, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    result["run_wall_s"] = perf_counter() - start
    return result


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="also run traced and write everything to this JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_from(args.seeds)
    record = {"python": platform.python_version(), "nproc": workloads.available_cpus(),
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": failed,
                 "all_correct": all(r["correct"] for r in runs),
                 "run_wall_s": [round(r["run_wall_s"], 1) for r in runs], "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {entry['attempted']} jobs, {failed} failed, "
              f"all correct: {entry['all_correct']}, longest run {max(entry['run_wall_s'])} s")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"  {name:12s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}  bound {bound}  {flag}")
            print("    values " + " ".join(f"{v:.6g}" for v in stats["values"]))
        if args.out:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["traced_seed"] = seeds[0]
            entry["trace_report"] = traced["report"]
            entry["per_layer"] = {
                fields[1]: float(fields[2])
                for fields in (line.split() for line in traced["report"])
                if fields[0] == "layer"
            }
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
