#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--workloads A,B] [--seeds 1-10]
                                  [--trace 0|1] [--out perfbench/baseline.json]

Run it from the root of a checkout.  For every workload it runs
perfbench/run.py once per seed, in turn, and prints each metric's
median, first and third quartile (Python's statistics.quantiles with
n=4) and the spread: the distance between the quartiles as a share of
the median.  With --out it also writes the summary, the workloads'
provenance and each metric's unit and kind as JSON: the trajectory
point later changes compare against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

NOTE = ("The first point of the performance trajectory: per-metric median "
        "and quartiles over the seeds, per workload. BENCH_6.json and "
        "tools/bench_check stay as they are because CI still uses them, "
        "but they are no longer the basis for performance claims.")


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 + proc.stdout)
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n" + proc.stdout)
    return result, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default="write-hashmap,scan-nmtree,stall-hashmap")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    seeds = seeds_of(args.seeds)
    report = {}
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in seeds:
            result, wall = run_once(workload, seed, seconds, args.trace)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        rows = {name: summary(v) for name, v in values.items()}
        print(f"{workload}: runs took {min(walls):.1f}-{max(walls):.1f} s")
        for name, s in rows.items():
            print(f"  {name:44s} {s['median']:14.6g}  "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}]  spread {s['spread']:.4f}")
        report[workload] = rows
    if args.out:
        describe = subprocess.run(
            [os.path.join("_build", "default", "perfbench", "main.exe"),
             "--describe"], stdout=subprocess.PIPE, text=True, check=True)
        with open(args.out, "w") as f:
            json.dump({"note": NOTE, "seeds": args.seeds,
                       "run_seconds": seconds, "trace": args.trace,
                       "describe": json.loads(describe.stdout),
                       "metrics": report}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
