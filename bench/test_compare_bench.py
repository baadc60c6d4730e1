#!/usr/bin/env python3
"""Regression tests for compare_bench.py's missing-suite handling.

Runs the comparer as a subprocess against small synthetic
google-benchmark JSON documents and asserts on exit codes and
diagnostics:

  - a baseline suite absent from the fresh run fails strict mode with
    a per-suite diagnostic (and still passes --check-only),
  - a fresh suite absent from the baseline likewise,
  - a benchmark entry without a "name" is a clean error, not a
    KeyError traceback,
  - a self-compare still passes both modes.

Registered as the ctest target bench_compare_missing_suite; runnable
standalone: python3 bench/test_compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "compare_bench.py")

CONTEXT = {
    "num_cpus": 4,
    "cpu_model": "Test CPU",
    "kernel": "Linux test",
    "library_build_type": "release",
}


def bench(name, **metrics):
    entry = {"name": name, "run_type": "iteration"}
    entry.update(metrics)
    return entry


def doc(benchmarks):
    return {"context": dict(CONTEXT), "benchmarks": benchmarks}


def write(tmpdir, fname, document):
    path = os.path.join(tmpdir, fname)
    with open(path, "w") as f:
        json.dump(document, f)
    return path


def run(*argv):
    proc = subprocess.run(
        [sys.executable, COMPARE, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    full = [
        bench("BM_ShadowSpanStride/64", bytes_per_second=1e9),
        bench("BM_WideReplay/1", items_per_second=2e6),
    ]
    without_wide = [
        bench("BM_ShadowSpanStride/64", bytes_per_second=1e9),
    ]
    failures = []

    def check(label, ok, output):
        if ok:
            print(f"PASS {label}")
        else:
            failures.append(label)
            print(f"FAIL {label}\n--- output ---\n{output}\n---")

    with tempfile.TemporaryDirectory() as tmp:
        base_full = write(tmp, "base_full.json", doc(full))
        base_missing = write(tmp, "base_missing.json",
                             doc(without_wide))
        fresh_full = write(tmp, "fresh_full.json", doc(full))
        fresh_missing = write(tmp, "fresh_missing.json",
                              doc(without_wide))

        # Self-compare passes strict and check-only.
        rc, out = run(base_full, fresh_full)
        check("self-compare strict passes", rc == 0, out)
        rc, out = run("--check-only", base_full, fresh_full)
        check("self-compare check-only passes", rc == 0, out)

        # Baseline suite missing from the fresh run: strict fails with
        # a diagnostic naming the suite; check-only still passes but
        # prints the same diagnostic.
        rc, out = run(base_full, fresh_missing)
        check("missing-from-fresh strict fails",
              rc != 0 and "BM_WideReplay" in out
              and "missing from" in out, out)
        rc, out = run("--check-only", base_full, fresh_missing)
        check("missing-from-fresh check-only warns but passes",
              rc == 0 and "BM_WideReplay" in out, out)

        # Fresh suite missing from the baseline: no silent pass.
        rc, out = run(base_missing, fresh_full)
        check("missing-from-baseline strict fails",
              rc != 0 and "BM_WideReplay" in out
              and "no baseline" in out, out)
        rc, out = run("--check-only", base_missing, fresh_full)
        check("missing-from-baseline check-only warns but passes",
              rc == 0 and "BM_WideReplay" in out, out)

        # A nameless benchmark entry is a clean diagnostic, never a
        # KeyError traceback.
        nameless = doc([{"run_type": "iteration",
                         "bytes_per_second": 1e9}])
        base_nameless = write(tmp, "base_nameless.json", nameless)
        rc, out = run(base_nameless, fresh_full)
        check("nameless entry is a clean error",
              rc != 0 and "no \"name\" field" in out
              and "Traceback" not in out, out)

        # An aggregate row without a name is skipped, not fatal.
        with_aggregate = doc([{"run_type": "aggregate"}] + full)
        base_agg = write(tmp, "base_agg.json", with_aggregate)
        rc, out = run(base_agg, fresh_full)
        check("nameless aggregate rows are skipped", rc == 0, out)

    if failures:
        print(f"\n{len(failures)} case(s) failed: {failures}")
        return 1
    print("\nall compare_bench.py missing-suite cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
