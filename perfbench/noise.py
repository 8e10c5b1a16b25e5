#!/usr/bin/env python3
"""Measures the run-to-run noise of the benchmark's end-to-end metrics.

Runs `bash perfbench/run.sh` once per seed on each workload given and prints,
for every metric, the median of the runs, the quartiles as
statistics.quantiles(values, n=4) gives them, the quartile distance as a
share of the median, and (max - min) / median. Run it from the repository
root, for example:

    python3 perfbench/noise.py --workloads paper-run,sweep-cold --seeds 1-10 --seconds 25
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}{last}")
            steal = re.search(r"host_steal\s+(\S+)", out.stdout)
            res = json.loads(last)
            if not res["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items()))
                + (f" host_steal={steal.group(1)}" if steal else ""), flush=True)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"{workload}: {len(next(iter(values.values())))} runs")
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print(f"  {k:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"iqr/median {(q3 - q1) / med:.4f}  (max-min)/median {(max(vs) - min(vs)) / med:.4f}")


if __name__ == "__main__":
    main()
