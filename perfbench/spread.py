#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload city-paced --seeds 1-10
    python3 perfbench/spread.py --workload walk-http --seeds 1-5 --overhead

For every end-to-end metric it prints the median of the runs, the first
and third quartiles (statistics.quantiles, n=4) and the interquartile
range as a share of the median, next to the metric's bound from
BENCHMARK.json. With --overhead it also runs each seed traced and prints
the tracing overhead: the traced median minus the untraced median of
each end-to-end metric (traced runs print their end-to-end table on
stderr).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    if trace:
        # The traced run's end-to-end table is on stderr.
        vals, table = {}, False
        for line in p.stderr.splitlines():
            if line.startswith("end-to-end"):
                table = True
                continue
            if table and not line.startswith("  "):
                break
            if table:
                name, value = line.split()[:2]
                vals[name] = float(value)
    return vals


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for s in args.seeds:
        runs.append(run(args.workload, s, seconds, 0))
        print(f"seed {s}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(runs[-1].items())), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs of {seconds}s")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    worst = 0.0
    for name in bounds:
        vals = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name != "setup_s":
            worst = max(worst, spread / bounds[name])
            if spread > bounds[name] / 3:
                flag = "  > bound/3"
        print(f"{name:<18} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bounds[name]:6.2f}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")

    if args.overhead:
        traced = [run(args.workload, s, seconds, 1) for s in args.seeds]
        print("\ntracing overhead (traced median - untraced median)")
        for name in bounds:
            t = statistics.median(r[name] for r in traced)
            u = statistics.median(r[name] for r in runs)
            print(f"{name:<18} {t - u:+12.4f}  ({(t - u) / u:+.1%})")


if __name__ == "__main__":
    main()
