#!/usr/bin/env python3
"""Alternated A/B comparison of the watched microbenchmarks.

An absolute baseline (BENCH_*.json) cannot gate a change on a host
whose CPU speed drifts over time; a parent and a change run back to
back can. This script builds both microbenchmark binaries,
micro_dispatch and micro_shadow (Release), in two checkouts and runs
them for PAIRS pairs; each run merges the two binaries' JSON into one
document. For each watched (benchmark, metric) of compare_bench.py it
takes the median over the pairs of change / base.

Each pair also runs the base binary a second time (the A/A leg), and
the three runs rotate through the order base, change, base-again so
that no run always goes first. The base-again / base ratios show what
identical code reads on this host during this run: their median and
interquartile range are printed next to each metric's change / base
median, which is marked "within A/A spread" when it falls inside that
range.

A watched metric is REGRESSED when its median paired ratio is worse
than compare_bench.py's threshold and also lies outside its A/A
interquartile range; a metric with no A/A ratios is judged by the
threshold alone. A regressed metric, or one that did not run on both
sides, fails the run (exit 1). So does a watched pattern that matched
no benchmark on either side, unless --filter leaves it out.

A metric whose median is worse than its whole A/A interquartile range
but inside the threshold is marked "worse" instead of "ok": the change
lost by more than identical code varies on this host, yet by less than
the gate allows. It does not fail the run, but a criterion of "no
slower than the A/A spread" is not met by it.

Usage:
  bench/ab_compare.py [--filter REGEX] [--min-time 2]
                      BASE_CHECKOUT CHANGE_CHECKOUT

Each checkout is built into build-ab/ inside it. --filter narrows the
run to a subset of the watched benchmarks (a --benchmark_filter
regex), e.g. '^BM_ServerQueryThroughput/1/'.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare_bench import (THRESHOLD, WATCHED, entries,  # noqa: E402
                           watched_metrics)

# Ten pairs, as every gain claimed in EXPERIMENTS.md needs. Five let
# identical decode code read -11%; ten still let an A/A run read -21%
# on the server sweep ("One recv per frame"), so every run carries its
# own A/A leg, and a median inside the A/A spread is not a regression.
PAIRS = 10
TARGETS = ("micro_dispatch", "micro_shadow")


def paired_ratios(pairs):
    """Per watched (name, metric): the list of change / base ratios,
    one per (base_doc, change_doc) pair, and its direction. A key
    missing from either side of any pair is left out and reported in
    the second return value."""
    ratios, directions, missing = {}, {}, set()
    for base_doc, change_doc in pairs:
        base = {(n, m): (d, v) for n, m, d, v
                in watched_metrics(entries(base_doc, "base run"))}
        change = {(n, m): (d, v) for n, m, d, v
                  in watched_metrics(entries(change_doc, "change run"))}
        for key in base.keys() ^ change.keys():
            missing.add(key)
        for key in base.keys() & change.keys():
            (direction, bval), (_, cval) = base[key], change[key]
            directions[key] = direction
            ratios.setdefault(key, []).append(cval / bval if bval else 1.0)
    for key in missing:
        ratios.pop(key, None)
    return {k: (directions[k], r) for k, r in ratios.items()}, missing


def absent_patterns(pairs, bench_filter=None):
    """The watched (pattern, metric) pairs that matched no benchmark in
    any document of either side. A pattern --filter leaves out is not
    absent: it counts as selected when the filter regex matches the
    pattern's literal name, its ^ and $ anchors stripped."""
    seen = set()
    for docs in pairs:
        for i, d in enumerate(docs):
            for name, metric, _, _ in watched_metrics(
                    entries(d, "run %d" % i)):
                seen.update((p, m) for p, m, _ in WATCHED
                            if m == metric and re.search(p, name))
    return [(p, m) for p, m, _ in WATCHED
            if (p, m) not in seen
            and (bench_filter is None
                 or re.search(bench_filter, p.strip("^$")))]


def aa_spread(aa_ratios, median_ratio):
    """The A/A leg of one metric: (median base/base ratio, first
    quartile, third quartile, whether median_ratio -- the metric's
    change / base median -- lies inside [q1, q3]). Quartiles
    interpolate linearly between order statistics."""
    if len(aa_ratios) == 1:
        q1 = med = q3 = aa_ratios[0]
    else:
        q1, med, q3 = statistics.quantiles(aa_ratios, n=4,
                                           method="inclusive")
    return med, q1, q3, q1 <= median_ratio <= q3


def verdicts(ratios, aa_ratios=None):
    """One row per watched key: (name, metric, median ratio, pairs the
    change won, pair count, A/A spread, regressed). The median ratio
    is judged as compare_bench.py judges a fresh run against a
    baseline, a positive 'worse' delta beyond THRESHOLD, and must also
    lie outside the key's A/A interquartile range: identical code that
    reads as far apart on this host is no evidence against the change.
    The A/A spread is aa_spread()'s tuple, or None for a key without
    A/A ratios, which the threshold alone judges."""
    rows = []
    for (name, metric), (direction, rs) in sorted(ratios.items()):
        med = statistics.median(rs)
        worse = -(med - 1.0) * direction
        wins = sum(1 for r in rs if (r - 1.0) * direction > 0)
        spread = None
        if aa_ratios and (name, metric) in aa_ratios:
            spread = aa_spread(aa_ratios[(name, metric)][1], med)
        bad = worse > THRESHOLD and not (spread and spread[3])
        rows.append((name, metric, med, wins, len(rs), spread, bad))
    return rows


def label(direction, med, spread, bad):
    """The printed verdict of one verdicts() row: 'REGRESSED'; 'worse'
    when its median is worse than the whole A/A interquartile range
    (below q1 where higher is better, above q3 where lower is) but
    inside the threshold; else 'ok'."""
    if bad:
        return "REGRESSED"
    if spread is not None and not spread[3]:
        _, q1, q3, _ = spread
        if (med < q1) if direction > 0 else (med > q3):
            return "worse"
    return "ok"


def report(pairs, aa_pairs, bench_filter=None):
    """Print the verdicts on (base, change) `pairs` with the A/A leg of
    (base, base-again) `aa_pairs`; return the exit status: 1 when a
    metric regressed, missed a side of a pair or matched nothing."""
    ratios, missing = paired_ratios(pairs)
    aa_ratios, _ = paired_ratios(aa_pairs)
    for name, metric in sorted(missing):
        print("missing  %s [%s] — not on both sides of every pair"
              % (name, metric))
    absent = absent_patterns(pairs, bench_filter)
    for pattern, metric in absent:
        print("missing  %s [%s] — matched no benchmark on either side"
              % (pattern, metric))
    if not ratios:
        sys.exit("error: no watched metric ran on both sides")
    rows = verdicts(ratios, aa_ratios)
    regressed = worse = 0
    for name, metric, med, wins, n, spread, bad in rows:
        verdict = label(ratios[(name, metric)][0], med, spread, bad)
        regressed += verdict == "REGRESSED"
        worse += verdict == "worse"
        print("%-9s %s [%s]: median change/base %.4f (%+.1f%%), "
              "change better in %d/%d pairs"
              % (verdict, name, metric, med, (med - 1.0) * 100, wins, n))
        print("          pair ratios: " + ", ".join(
            "%.3f" % r for r in ratios[(name, metric)][1]))
        if spread is not None:
            aa_med, q1, q3, within = spread
            note = ""
            if within:
                note = " -- within A/A spread"
            elif verdict == "worse":
                note = " -- change worse than the whole A/A spread"
            print("          A/A base/base median %.4f, IQR [%.4f, %.4f]"
                  "%s" % (aa_med, q1, q3, note))
    print("\n%d metrics compared over %d pairs, %d missing, %d regressed "
          "beyond %.0f%% and outside the A/A spread, %d worse than the "
          "A/A spread but inside %.0f%%"
          % (len(rows), len(pairs), len(missing) + len(absent), regressed,
             THRESHOLD * 100, worse, THRESHOLD * 100))
    return 1 if regressed or missing or absent else 0


def build(checkout):
    """Build every TARGETS binary of a checkout; return their paths."""
    build_dir = os.path.join(checkout, "build-ab")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", checkout, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", *TARGETS,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return [os.path.join(build_dir, "bench", t) for t in TARGETS]


def merge_docs(docs):
    """One google-benchmark document holding every benchmark of
    `docs`, under the first document's context."""
    merged = {"context": docs[0].get("context", {}), "benchmarks": []}
    for d in docs:
        merged["benchmarks"].extend(d.get("benchmarks", []))
    return merged


def run_once(binaries, bench_filter, min_time):
    """Run each binary once; return their merged JSON document."""
    docs = []
    for binary in binaries:
        with tempfile.NamedTemporaryFile(suffix=".json") as out:
            subprocess.run([binary, "--benchmark_filter=" + bench_filter,
                            "--benchmark_min_time=%g" % min_time,
                            "--benchmark_out=" + out.name,
                            "--benchmark_out_format=json"],
                           stdout=subprocess.DEVNULL, check=True)
            with open(out.name) as f:
                docs.append(json.load(f))
    return merge_docs(docs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--filter", default=None,
                    help="--benchmark_filter regex (default: every "
                         "watched pattern)")
    ap.add_argument("--min-time", type=float, default=2.0,
                    help="--benchmark_min_time per benchmark (s)")
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args()

    binaries = {}
    for side, checkout in (("base", args.base), ("change", args.change)):
        try:
            binaries[side] = build(os.path.abspath(checkout))
        except (OSError, subprocess.CalledProcessError) as e:
            sys.exit("error: building %s failed: %s" % (checkout, e))

    bench_filter = args.filter or "|".join(p for p, _, _ in WATCHED)
    binaries["base-again"] = binaries["base"]
    rotation = ("base", "change", "base-again")
    pairs, aa_pairs = [], []
    for i in range(PAIRS):
        order = rotation[i % 3:] + rotation[:i % 3]
        docs = {}
        for side in order:
            try:
                docs[side] = run_once(binaries[side], bench_filter,
                                      args.min_time)
            except (OSError, ValueError,
                    subprocess.CalledProcessError) as e:
                sys.exit("error: %s run %d failed: %s" % (side, i + 1, e))
        pairs.append((docs["base"], docs["change"]))
        aa_pairs.append((docs["base"], docs["base-again"]))
        print("pair %d/%d done (%s)" % (i + 1, PAIRS, ", ".join(order)),
              file=sys.stderr)

    return report(pairs, aa_pairs, args.filter)


if __name__ == "__main__":
    sys.exit(main())
