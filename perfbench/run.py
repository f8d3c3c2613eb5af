#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator libraries and the benchmark program (Release) under the build
directory ($CARGO_TARGET_DIR, default .bench_build); later calls rebuild
incrementally. With --trace 0 the set-up time is measured in several fresh
processes (each generates the inputs and runs the warm-up) and reported as
their median. The last stdout line is the JSON result; any failure exits
non-zero without printing one.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4         # fresh processes that only set up, besides the main run
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, *gen, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(bdir, "perfbench")


def run(cmd):
    """Run perfbench; its last stdout line must be a JSON object."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("perfbench: run failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
        return None, []
    return json.loads(lines[-1]), lines[:-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden-dir", default=os.path.join(ROOT, "bench", "golden"))
    a = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_root)
    if exe is None:
        return 2
    base = [exe, "--workload", a.workload, "--seed", str(a.seed),
            "--golden-dir", a.golden_dir]

    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic_ns()
            res, _ = run(base + ["--seconds", str(a.seconds), "--setup-only",
                                 "--t0-ns", str(t0)])
            if res is None:
                return 1
            setups.append(res["setup_s"])

    t0 = time.monotonic_ns()
    res, lines = run(base + ["--seconds", str(a.seconds), "--trace", str(a.trace),
                             "--out-dir", build_root, "--t0-ns", str(t0)])
    if res is None:
        return 1
    for line in lines:
        print(line)
    if a.trace == 0:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s samples", " ".join("%.4f" % s for s in setups))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
