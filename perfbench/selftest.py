#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N] [--seconds S]

Runs every workload of BENCHMARK.json through perfbench/run.py at a
minimal length, once untraced and once traced, and asserts that

  * the run exits 0 and its correctness gate passes (failed == 0);
  * the untraced run reports every end-to-end metric with its unit and
    a finite value above 0;
  * the traced run reports every per-layer metric with its unit and a
    finite value.

Exits non-zero and names each problem otherwise.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def check(workload, trace, code, result, wanted):
    where = "%s trace=%d" % (workload, trace)
    problems = []
    if code != 0:
        problems.append("%s: exit code %d" % (where, code))
    if result is None:
        return problems + ["%s: no result line" % where]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("%s: correctness gate failed (%s of %s)" %
                        (where, result.get("failed"),
                         result.get("attempted")))
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("%s: missing %s" % (where, m["name"]))
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append("%s: %s unit %r, want %r" %
                            (where, m["name"], got.get("unit"), m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s value %r" % (where, m["name"], value))
        elif trace == 0 and value <= 0:
            problems.append("%s: %s is %r, want > 0" %
                            (where, m["name"], value))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            code, result = run(w["name"], args.seed, args.seconds, trace)
            found = check(w["name"], trace, code, result, wanted)
            print("%-16s trace=%d %s" % (w["name"], trace,
                                         "ok" if not found else "FAIL"))
            problems += found
    for p in problems:
        print("  " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
