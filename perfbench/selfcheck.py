#!/usr/bin/env python3
"""Self-check of the benchmark: one iteration of each workload, untraced and
traced, whose printed metric names and units must match BENCHMARK.json.

    python3 perfbench/selfcheck.py

Run it from the repository root. It builds through run.py, like any run.
Each check also requires exit code 0, "correct": true, no failed iteration,
and a last stdout line holding exactly the four result keys. Exits 1 when
any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(workload, trace, want):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--max-iters", "1"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    problems = []
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["no JSON result line (exit %d): %s" %
                (p.returncode, p.stderr.strip()[-500:])]
    if p.returncode != 0:
        problems.append("exit code %d" % p.returncode)
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("output check failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric " + name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric not in BENCHMARK.json: " + name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append("%s unit %s, BENCHMARK.json says %s" %
                            (name, got[name], want[name]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[section]}
            problems = check(w["name"], trace, want)
            status = "ok" if not problems else "FAIL"
            print("%-16s trace %d  %-4s %d %s metrics" %
                  (w["name"], trace, status, len(want), section))
            for msg in problems:
                print("    " + msg)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
