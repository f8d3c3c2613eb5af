#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steady.py [--runs 10] [--workload W ...] [--out FILE]

Runs perfbench/run.py once per seed (seeds 1..runs, untraced, for the
run_seconds BENCHMARK.json sets) on each workload, and reports for every
end-to-end metric its median and the distance between its first and third
quartile as a share of the median (statistics.quantiles, n=4). With --out
the per-run values and spreads are written as JSON; the bounds in
BENCHMARK.json are derived from that record.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    a = ap.parse_args()
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"run_seconds": spec["run_seconds"], "runs": a.runs, "workloads": {}}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, a.runs + 1):
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True, timeout=400)
            if r.returncode != 0:
                sys.exit("run.py failed on %s seed %d" % (w, seed))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit("incorrect result on %s seed %d" % (w, seed))
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "spread": spread, "values": vs}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("%-12s %-16s median %12.4f  spread %.4f  bound %.2f%s"
                  % (w, name, med, spread, bounds[name], flag), flush=True)
        record["workloads"][w] = rows
    print("worst spread / bound (excluding setup_s): %.3f" % worst)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
