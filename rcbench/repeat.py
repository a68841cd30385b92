#!/usr/bin/env python3
"""Repeatability check for the benchmark declared in BENCHMARK.json.

Runs every workload --runs times (seeds S, S+1, ...), interleaving the
workloads so slow drifts of the host spread over all of them, then prints
each metric's median and the distance between its first and third
quartiles as a share of the median. An end-to-end metric whose spread
exceeds its bound is flagged.

    python3 rcbench/repeat.py --runs 10 --seed 1
    python3 rcbench/repeat.py --runs 3 --seed 7 --workloads build_paper --trace

Run from the repository root. --json FILE also writes every run's result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--trace", action="store_true", help="per-layer runs")
    parser.add_argument("--json", help="write every result here")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = bench["per_layer" if opts.trace else "end_to_end"]

    results = {w: [] for w in workloads}
    for i in range(opts.runs):
        for w in workloads:
            result, wall = run_once(bench["command"], w, opts.seed + i,
                                    bench["run_seconds"], opts.trace)
            results[w].append(result)
            print(f"{w} seed {opts.seed + i}: {wall:.1f} s wall, "
                  f"{result['attempted']} ops", file=sys.stderr, flush=True)

    flagged = 0
    for w in workloads:
        print(f"\n{w} ({opts.runs} runs)")
        print(f"  {'metric':34} {'median':>14} {'IQR/median':>11} {'bound':>7}")
        for m in table:
            values = [r["metrics"][m["name"]]["value"] for r in results[w]]
            med, rel = spread(values) if len(values) > 1 else (values[0], 0.0)
            bound = bounds.get(m["name"])
            over = bound is not None and m["name"] != "setup_s" and rel > bound
            flagged += over
            print(f"  {m['name']:34} {med:14.6g} {rel:11.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>7}{'  OVER' if over else ''}")
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
