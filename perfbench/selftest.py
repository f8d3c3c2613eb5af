#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, prints exactly the
   metrics BENCHMARK.json lists, each with its unit, and fails nothing.
2. virtual_digest repeats across two invocations with the same seed, and
   changes with the seed.
3. A corrupted anchor (a copy of the golden files with one fig1 cell
   changed) makes the run report failed > 0 and correct = false.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = "0.2"


def bench(workload, seed, trace, *extra):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", TINY, "--trace", str(trace), *extra],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                       timeout=600)
    if r.returncode != 0:
        sys.exit("FAIL: run.py exited %d on %s" % (r.returncode, workload))
    lines = r.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("virtual_digest "))
    return json.loads(lines[-1]), digest


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            res, _ = bench(w, 1, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want[trace], "%s trace=%d prints every metric with its unit" % (w, trace))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  "%s trace=%d: correct, nothing failed" % (w, trace))

    _, d1 = bench("paper_figs", 1, 0)
    _, d2 = bench("paper_figs", 1, 0)
    _, d3 = bench("paper_figs", 2, 0)
    check(d1 == d2, "virtual_digest repeats across invocations (%s)" % d1)
    check(d1 != d3, "virtual_digest follows the seed (%s vs %s)" % (d1, d3))

    build_root = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    bad = os.path.join(build_root, "selftest-golden")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "bench", "golden"), bad)
    path = os.path.join(bad, "fig1_latency.txt")
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace("|     4 |              7.30 |", "|     4 |              7.31 |", 1))
    res, _ = bench("paper_figs", 1, 0, "--golden-dir", bad)
    check(res["failed"] > 0 and not res["correct"],
          "a corrupted anchor fails %d of %d simulations" % (res["failed"], res["attempted"]))
    shutil.rmtree(bad)


if __name__ == "__main__":
    main()
