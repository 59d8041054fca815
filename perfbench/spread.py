#!/usr/bin/env python3
"""Runs one workload of the benchmark over several seeds and prints, per
metric, the median and the interquartile range as a share of the median
(Python's statistics.quantiles(values, n=4)), the figure the bounds in
BENCHMARK.json are judged against.

    python3 perfbench/spread.py --workload audit --seeds 1 2 3 4 5 [--seconds 15] [--trace 0]

Run from the repository root. Each run's JSON line is appended to
.bench_out/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".bench_out", f"spread-{args.workload}.jsonl")
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for name, xs in values.items():
        med = statistics.median(xs)
        spread = 0.0
        if len(xs) >= 2 and med:
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med
        bound = bounds.get(name)
        limit = f"  bound {bound}  (spread/bound {spread / bound:.2f})" if bound else ""
        print(f"{name:<24} median {med:<14.6g} spread {spread:.4f}{limit}")


if __name__ == "__main__":
    main()
