#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median, quartiles and spread (interquartile range over median).

Run from the repository root, for example:

    python3 perfbench/stability.py --first-seed 1 --out set1.json

It runs every workload of BENCHMARK.json on RUNS consecutive seeds.  The
spreads are what BENCHMARK.json's bounds are set against.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10  # seeds per workload


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write all samples and statistics as JSON here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {}
    for name in (w["name"] for w in bench["workloads"]):
        samples = {m: [] for m in bounds}
        drift = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            rep = json.loads(lines[-1])
            if not rep["correct"]:
                sys.exit(f"{name} seed {seed}: run failed")
            for m in bounds:
                samples[m].append(rep["metrics"][m]["value"])
            drift.append(json.loads(lines[-2])["checks"]["momentum_drift"])
        stats = {}
        for m, xs in samples.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            stats[m] = {"median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med, "bound": bounds[m], "samples": xs}
            print(f"{name:8s} {m:22s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {stats[m]['spread']:.4f} (bound {bounds[m]})", flush=True)
        print(f"{name:8s} momentum drift max {max(drift):.3g}", flush=True)
        stats["momentum_drift"] = drift
        result[name] = stats
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)


if __name__ == "__main__":
    main()
