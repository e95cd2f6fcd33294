#!/usr/bin/env python3
"""Measure the benchmark's baseline and write perfbench/baseline.json.

Runs every workload of BENCHMARK.json ten times, each with another seed,
untraced, one run after another, and records for each end-to-end metric
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread: the distance between the quartiles as a share of the median.

  python3 perfbench/baseline.py            # all workloads, seeds 1..10
  python3 perfbench/baseline.py --workloads mix4-shared --seeds 5
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), out.stderr))
    host = next((l for l in lines if l.startswith("perfbench host:")), "")
    return host, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args()

    result = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values, host, failed = {}, "", 0
        for seed in range(1, args.seeds + 1):
            host, r = run_once(workload, seed, bench["run_seconds"])
            failed += r["failed"] + (0 if r["correct"] else 1)
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()}, flush=True)
        stats = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "runs": v}
            print("  %-12s median %-10.5g spread %.3f" %
                  (name, med, stats[name]["spread"]), flush=True)
        result["workloads"][workload] = {
            "host": re.sub(r" seed=\S+", "",
                           host.replace("perfbench host: ", "")),
            "seeds": list(range(1, args.seeds + 1)),
            "failed": failed,
            "metrics": stats,
        }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
