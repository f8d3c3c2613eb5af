#!/usr/bin/env python3
"""Line-coverage gate for src/: every src/ line that some translation unit
compiles must run under the suite, or be listed in tools/coverage_allow.json
with a reason.

Usage (after a --coverage build has run ctest, repro_all and tuner):

    python3 tools/coverage.py BUILD_DIR [--gcov gcov-12]

The script runs `gcov --json-format` on every .gcno under BUILD_DIR. It
enumerates .gcno files, not .gcda files: a unit whose binary never ran has
no .gcda, and gcov then reports all its lines as unexecuted instead of
dropping them from the count. Counts are merged per (file, line) over every
unit, so a header line counts as reached when any unit that inlines it ran
it. Lines are counted, not functions: a function inlined through a `final`
class reads 0 entries in gcov even when its line runs.

An allowlist entry {"file", "line", "why"} covers one unreached line of
`file` whose text, stripped, equals `line` (two such lines need two
entries). The gate fails when a src/ line is unreached and not covered,
when an entry covers no unreached line (stale), when an entry has no
reason, or when the allowlist has more than MAX_ALLOWED entries. Nothing is
installed: Python 3 standard library and gcov only.
"""
import argparse
import concurrent.futures
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "tools" / "coverage_allow.json"
MAX_ALLOWED = 20


def gcov_json(gcov, gcno, cwd):
    out = subprocess.run([gcov, "--json-format", "--stdout", str(gcno)],
                         cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def merged_counts(build, gcov):
    """{'src/...': {line: max count over every unit}} for lines under src/."""
    gcnos = sorted(pathlib.Path(build).resolve().rglob("*.gcno"))
    if not gcnos:
        sys.exit(f"coverage: no .gcno files under {build}")
    src = ROOT / "src"
    counts = {}
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for doc in pool.map(lambda g: gcov_json(gcov, g, tmp), gcnos):
            for f in doc["files"]:
                path = pathlib.Path(doc["current_working_directory"], f["file"]).resolve()
                if not path.is_relative_to(src):
                    continue
                lines = counts.setdefault(str(path.relative_to(ROOT)), {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    lines[n] = max(lines.get(n, 0), ln["count"])
    return len(gcnos), counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("build", help="build tree of a --coverage build that ran the suite")
    ap.add_argument("--gcov", default="gcov", help="gcov matching the compiler (gcov-12)")
    args = ap.parse_args()

    units, counts = merged_counts(args.build, args.gcov)
    allow = json.loads(ALLOW.read_text())
    used = [False] * len(allow)
    failures = []
    if len(allow) > MAX_ALLOWED:
        failures.append(f"{len(allow)} allowlist entries, above the budget of {MAX_ALLOWED}")
    for e in allow:
        if not e.get("why", "").strip():
            failures.append(f"allowlist entry {e['file']}: '{e['line']}' gives no reason")

    total = reached = allowed = 0
    unreached = []
    for rel in sorted(counts):
        text = (ROOT / rel).read_text().splitlines()
        for n, c in sorted(counts[rel].items()):
            total += 1
            if c > 0:
                reached += 1
                continue
            src_line = text[n - 1].strip() if n <= len(text) else ""
            entry = next((i for i, e in enumerate(allow) if not used[i]
                          and e["file"] == rel and e["line"] == src_line), None)
            if entry is None:
                unreached.append(f"{rel}:{n}: {src_line}")
            else:
                used[entry] = True
                allowed += 1

    for e, u in zip(allow, used):
        if not u:
            failures.append(f"stale allowlist entry {e['file']}: '{e['line']}' "
                            "matches no unreached line")
    failures += [f"unreached: {u}" for u in unreached]

    print(f"coverage: {units} units, {len(counts)} src/ files; {reached} of {total} "
          f"lines reached ({100.0 * reached / max(total, 1):.1f}%), "
          f"{allowed} allowlisted, {len(unreached)} unreached")
    for f in failures:
        print(f"coverage: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
