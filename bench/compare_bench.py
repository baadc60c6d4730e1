#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON against a committed baseline.

Guards the perf trajectory of the hot paths the PR series optimizes:
the stamp-word span fill (BM_ShadowSpanStride), end-to-end trace
replay throughput (BM_TraceReplayThroughput), and the shadow-memory
footprint (the shadow_peak_bytes counter). A regression of more than
the threshold (default 10%) on any watched metric fails the run.

Usage:
  bench/compare_bench.py [--check-only] [--threshold 0.10]
                         BASELINE.json FRESH.json

--check-only reports deltas but exits 0 on regressions; it still
exits 1 on malformed input or when a watched metric is missing from
the baseline (baseline rot), so the tier-1 smoke target catches
tooling breakage without failing on machine-to-machine noise.

Watched suites must be present on both sides: a baseline that lacks
one of the candidate's suites (or vice versa), or a baseline
benchmark absent from the fresh run, produces a per-suite diagnostic
naming the suite, and fails a strict (non --check-only) comparison —
two files covering different benchmark sets cannot vouch for the
perf trajectory of the suites one of them skipped.

A fresh run whose context.library_build_type is "debug" is rejected
outright (even under --check-only): a Debug benchmark harness taxes
every State iteration, so nothing it measures is comparable to a
Release baseline. Build the bundled bench/minibench shim (the
default) or a Release google-benchmark and re-run.

Both files carry a machine manifest (context.num_cpus, cpu_model,
kernel). A baseline recorded on different hardware (cpu_model or
num_cpus mismatch) is refused — under --check-only it degrades to a
warning, so smoke targets keep passing on CI pools. A kernel-only
mismatch always just warns (same machine, upgraded kernel). Baselines
predating the manifest compare silently.
"""

import argparse
import json
import re
import sys

# (name regex, metric key, direction) — direction +1 means higher is
# better (rates), -1 means lower is better (bytes, times).
WATCHED = [
    (r"^BM_ShadowSpanStride/", "bytes_per_second", +1),
    (r"^BM_ShadowPerUnitStride/", "bytes_per_second", +1),
    (r"^BM_TraceReplayThroughput$", "items_per_second", +1),
    (r"^BM_TraceReplayThroughput$", "shadow_peak_bytes", -1),
    (r"^BM_WideReplay/", "items_per_second", +1),
    (r"^BM_TraceDecode/", "items_per_second", +1),
    (r"^BM_ServerQueryThroughput/", "items_per_second", +1),
]

# Relative regression of a watched metric that fails a comparison.
THRESHOLD = 0.10


def machine_mismatches(base_ctx, fresh_ctx):
    """Split manifest differences into hard (different machine) and
    soft (same machine, different kernel) mismatches. Keys missing on
    either side — e.g. a baseline predating the manifest — compare
    silently."""
    hard, soft = [], []
    for key, bucket in (("cpu_model", hard), ("num_cpus", hard),
                        ("kernel", soft)):
        bval, fval = base_ctx.get(key), fresh_ctx.get(key)
        if bval is None or fval is None or bval == fval:
            continue
        bucket.append((key, bval, fval))
    return hard, soft


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    return doc.get("context", {}), entries(doc, path)


def entries(doc, source):
    """Name -> entry of a google-benchmark JSON document, aggregate
    rows skipped. Exits on a nameless entry or an empty document."""
    out = {}
    for i, b in enumerate(doc.get("benchmarks", [])):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        if not name:
            sys.exit(f"error: {source}: benchmark entry #{i} has no "
                     "\"name\" field; the file is malformed or was "
                     "not produced by --benchmark_format=json")
        out[name] = b
    if not out:
        sys.exit(f"error: {source} contains no benchmark entries")
    return out


def watched_metrics(bench_map):
    """Yield (name, metric, direction, value) for every watched match."""
    for name, entry in sorted(bench_map.items()):
        for pattern, metric, direction in WATCHED:
            if re.search(pattern, name) and metric in entry:
                yield name, metric, direction, float(entry[metric])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check-only", action="store_true",
                    help="report deltas but do not fail on regressions")
    ap.add_argument("--threshold", type=float, default=THRESHOLD,
                    help="relative regression that fails (default "
                         f"{THRESHOLD})")
    ap.add_argument("--require", action="append", default=[],
                    metavar="REGEX",
                    help="fail (even under --check-only) when no "
                         "watched baseline metric matches REGEX — a "
                         "per-suite baseline-rot guard")
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    args = ap.parse_args()

    base_ctx, base = load(args.baseline)
    fresh_ctx, fresh = load(args.fresh)

    # Hard gate, deliberately immune to --check-only: a debug-built
    # benchmark library invalidates the measurement itself, not just
    # one metric.
    build_type = str(fresh_ctx.get("library_build_type", "")).lower()
    if build_type == "debug":
        sys.exit(f"error: {args.fresh} was recorded with a debug "
                 "benchmark library (context.library_build_type == "
                 "\"debug\"); its numbers are not comparable. Rebuild "
                 "with the bundled minibench (default) or a Release "
                 "google-benchmark and re-record.")

    hard, soft = machine_mismatches(base_ctx, fresh_ctx)
    for key, bval, fval in soft:
        print(f"warning: baseline {key} differs "
              f"({bval!r} -> {fval!r}); same-machine comparison "
              "assumed", file=sys.stderr)
    if hard:
        detail = ", ".join(f"{key}: {bval!r} -> {fval!r}"
                           for key, bval, fval in hard)
        if args.check_only:
            print(f"warning: baseline was recorded on a different "
                  f"machine ({detail}); deltas below are "
                  "machine-to-machine noise, not regressions",
                  file=sys.stderr)
        else:
            sys.exit(f"error: baseline {args.baseline} was recorded "
                     f"on a different machine ({detail}); re-record "
                     "it with bench/run_benches.sh on this machine "
                     "or pass --check-only to inspect the deltas "
                     "anyway.")

    base_watched = {(n, m): (d, v)
                    for n, m, d, v in watched_metrics(base)}
    fresh_watched = {(n, m): (d, v)
                     for n, m, d, v in watched_metrics(fresh)}
    if not base_watched:
        sys.exit(f"error: no watched metrics found in {args.baseline}; "
                 "baseline is stale — re-record with bench/run_benches.sh")
    for req in args.require:
        if not any(re.search(req, name) for name, _ in base_watched):
            sys.exit(f"error: no watched baseline metric matches "
                     f"{req!r} in {args.baseline}; re-record with "
                     "bench/run_benches.sh")

    # Per-suite presence check: each WATCHED (pattern, metric) pair is
    # one guarded suite. A suite present on only one side means the
    # two files were produced by different benchmark sets — that must
    # surface as a named diagnostic (and a strict-mode failure), never
    # as a silent pass over the suites that happen to match.
    suite_problems = []
    for pattern, metric, _ in WATCHED:
        in_base = any(name for (name, m) in base_watched
                      if m == metric and re.search(pattern, name))
        in_fresh = any(name for (name, m) in fresh_watched
                       if m == metric and re.search(pattern, name))
        if in_base and not in_fresh:
            suite_problems.append(
                f"suite {pattern!r} [{metric}] is in the baseline "
                f"but missing from {args.fresh} — the fresh run did "
                "not execute it")
        elif in_fresh and not in_base:
            suite_problems.append(
                f"suite {pattern!r} [{metric}] is in the fresh run "
                f"but missing from {args.baseline} — no baseline "
                "gates it; re-record with bench/run_benches.sh")
    for msg in suite_problems:
        print(f"warning: {msg}", file=sys.stderr)

    regressions = []
    compared = 0
    missing = 0
    for (name, metric), (direction, bval) in sorted(base_watched.items()):
        entry = fresh.get(name)
        if entry is None or metric not in entry:
            print(f"missing  {name} [{metric}] — not in fresh run")
            missing += 1
            continue
        fval = float(entry[metric])
        compared += 1
        change = (fval - bval) / bval if bval else 0.0
        # Positive delta always means "worse", whichever way is better.
        delta = -change * direction
        flag = "REGRESSED" if delta > args.threshold else "ok"
        print(f"{flag:9s} {name} [{metric}]: "
              f"{bval:.4g} -> {fval:.4g} ({change * 100:+.1f}%"
              f"{', worse' if delta > 0 else ''})")
        if delta > args.threshold:
            regressions.append((name, metric, delta))

    if compared == 0:
        sys.exit("error: no watched metric present in both files")

    print(f"\n{compared} metrics compared, {missing} missing, "
          f"{len(regressions)} regressed beyond {args.threshold:.0%}")
    if args.check_only:
        return 0
    if suite_problems or missing:
        print(f"error: {len(suite_problems)} suite mismatch(es), "
              f"{missing} missing benchmark(s); the files do not "
              "cover the same benchmark set (see diagnostics above)",
              file=sys.stderr)
        return 1
    if regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
