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

It also checks ab_compare.py's pairing and median logic on canned
documents: ratios pair each base run with its change run, the median
ratio (not the mean, not the best pair) is what the threshold judges,
direction is honoured for lower-is-better metrics, a benchmark
missing from one side of a pair is reported, not compared, the
A/A leg's quartiles and "within A/A spread" mark are computed from
the base/base ratios, a regression beyond the threshold is flagged
only outside that spread (by the threshold alone without A/A ratios),
a loss beyond the whole spread but inside the threshold is marked
"worse" rather than "ok" without failing the run, the report exits 1
on a regression or on a missing or absent metric,
the two binaries' documents merge into one, and a watched pattern no
benchmark matched on either side is reported unless --filter leaves
it out.

Registered as the ctest target bench_compare_missing_suite; runnable
standalone: python3 bench/test_compare_bench.py
"""

import contextlib
import io
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


def ab_compare_cases(check):
    sys.path.insert(0, os.path.dirname(COMPARE))
    import ab_compare

    server = "BM_ServerQueryThroughput/1"
    trace = "BM_TraceReplayThroughput"

    def run_doc(rate, peak=None):
        benches = [bench(server, items_per_second=rate)]
        if peak is not None:
            benches.append(bench(trace, items_per_second=1e6,
                                 shadow_peak_bytes=peak))
        return doc(benches)

    # Five pairs; the host slows down over the run, so absolute rates
    # fall, but every change run beats its own base run by 10%. One
    # outlier pair (the change loses by half) moves a mean, not the
    # median.
    base_rates = [100.0, 90.0, 80.0, 70.0, 60.0]
    change_rates = [110.0, 99.0, 40.0, 77.0, 66.0]
    pairs = [(run_doc(b, peak=1000), run_doc(c, peak=p))
             for b, c, p in zip(base_rates, change_rates,
                                [900, 900, 1200, 800, 900])]
    ratios, missing = ab_compare.paired_ratios(pairs)
    key = (server, "items_per_second")
    check("ab_compare pairs each base run with its change run",
          not missing and key in ratios
          and [round(r, 6) for r in ratios[key][1]]
          == [1.1, 1.1, 0.5, 1.1, 1.1], ratios)
    rows = {(n, m): (med, wins, n_pairs, bad)
            for n, m, med, wins, n_pairs, _, bad
            in ab_compare.verdicts(ratios)}
    med, wins, n_pairs, bad = rows[key]
    check("ab_compare judges the median paired ratio",
          abs(med - 1.1) < 1e-9 and wins == 4 and n_pairs == 5
          and not bad, rows[key])

    # Lower is better for shadow_peak_bytes: a median ratio of 0.9 is
    # a 10% gain, and 1.2 a 20% regression.
    peak = (trace, "shadow_peak_bytes")
    med, wins, _, bad = rows[peak]
    check("ab_compare honours lower-is-better metrics",
          abs(med - 0.9) < 1e-9 and wins == 4 and not bad, rows[peak])
    worse = [(run_doc(100.0, peak=1000), run_doc(100.0, peak=1200))
             for _ in range(5)]
    rows = {(n, m): bad for n, m, _, _, _, _, bad in
            ab_compare.verdicts(ab_compare.paired_ratios(worse)[0])}
    check("ab_compare flags a median regression beyond the threshold",
          rows[peak] and not rows[key], rows)

    # A watched benchmark absent from one side of a pair is reported
    # as missing and left out of the verdicts.
    lopsided = [(run_doc(100.0, peak=1000), run_doc(100.0))] * 5
    ratios, missing = ab_compare.paired_ratios(lopsided)
    check("ab_compare reports a benchmark missing from one side",
          peak in missing and peak not in ratios and key in ratios,
          (ratios, missing))

    # The A/A leg: base-again / base ratios 0.96, 0.98, 1.00, 1.02,
    # 1.04 have median 1.00 and inclusive quartiles 0.98 and 1.02. A
    # change/base median of 1.01 lies inside that spread; 1.1 does not.
    aa = [(run_doc(100.0), run_doc(r)) for r in (104, 96, 100, 102, 98)]
    aa_ratios, _ = ab_compare.paired_ratios(aa)
    spread = ab_compare.aa_spread(aa_ratios[key][1], 1.01)
    check("ab_compare takes the A/A median and interquartile range",
          all(abs(a - b) < 1e-9 for a, b in
              zip(spread[:3], (1.0, 0.98, 1.02))) and spread[3], spread)
    check("ab_compare marks a median outside the A/A spread",
          not ab_compare.aa_spread(aa_ratios[key][1], 1.1)[3]
          and ab_compare.aa_spread([1.05], 1.05)[1:] == (1.05, 1.05, True),
          aa_ratios)

    # The verdict: a median worse than the threshold regresses only
    # outside the A/A interquartile range. Both metrics below read 20%
    # worse (server rate 100 -> 80, shadow peak 1000 -> 1200). The
    # server's A/A ratios 0.6 .. 1.4 (IQR [0.7, 1.3]) hold 0.8; the
    # peak's, all 1.0, do not hold 1.2.
    regress = [(run_doc(100.0, peak=1000), run_doc(80.0, peak=1200))
               for _ in range(5)]
    noisy = [(run_doc(100.0, peak=1000), run_doc(r, peak=1000))
             for r in (60.0, 70.0, 100.0, 130.0, 140.0)]
    ratios = ab_compare.paired_ratios(regress)[0]
    aa_ratios = ab_compare.paired_ratios(noisy)[0]
    rows = {(n, m): (spread, bad) for n, m, _, _, _, spread, bad
            in ab_compare.verdicts(ratios, aa_ratios)}
    check("ab_compare flags a regression outside the A/A spread",
          rows[peak][1] and not rows[peak][0][3], rows[peak])
    check("ab_compare passes a regression inside the A/A spread",
          not rows[key][1] and rows[key][0][3], rows[key])
    rows = {(n, m): (spread, bad) for n, m, _, _, _, spread, bad
            in ab_compare.verdicts(ratios, {})}
    check("ab_compare judges a metric without A/A ratios by the "
          "threshold alone",
          rows[key] == (None, True) and rows[peak] == (None, True), rows)

    def report(pairs, aa_pairs, bench_filter):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = ab_compare.report(pairs, aa_pairs, bench_filter)
        return rc, out.getvalue()

    selected = "^BM_ServerQueryThroughput/|^BM_TraceReplayThroughput$"
    rc, out = report(regress, noisy, selected)
    server_lines = out[out.index("ok        " + server):]
    check("ab_compare report exits 1 on a regression outside the A/A "
          "spread",
          rc == 1 and "REGRESSED BM_TraceReplayThroughput "
          "[shadow_peak_bytes]" in out and "1 regressed" in out, out)
    check("ab_compare report prints 'within A/A spread' and passes "
          "the metric inside it",
          "within A/A spread" in server_lines.split("\n")[2], out)
    rc, out = report([(run_doc(100.0, peak=1000),
                       run_doc(80.0, peak=1000))] * 5, noisy, selected)
    check("ab_compare report exits 0 when every regression is inside "
          "the A/A spread", rc == 0 and "REGRESSED" not in out, out)
    # A median worse than the whole A/A interquartile range but inside
    # the threshold: the server rate 100 -> 95 (-5%) against A/A ratios
    # 0.98 .. 1.02 (IQR [0.99, 1.01]), and the shadow peak 1000 -> 1050
    # (+5%, lower is better) against A/A ratios all 1.0. Both are
    # marked "worse", not "ok", and the run still passes; the trace
    # rate, equal on both sides, stays "ok".
    slower = [(run_doc(100.0, peak=1000), run_doc(95.0, peak=1050))
              for _ in range(5)]
    steady = [(run_doc(100.0, peak=1000), run_doc(r, peak=1000))
              for r in (98.0, 99.0, 100.0, 101.0, 102.0)]
    rc, out = report(slower, steady, selected)
    check("ab_compare report marks a loss beyond the whole A/A spread "
          "but inside the threshold 'worse', not 'ok', and exits 0",
          rc == 0 and "worse     " + server in out
          and "worse     BM_TraceReplayThroughput [shadow_peak_bytes]"
          in out
          and "ok        BM_TraceReplayThroughput [items_per_second]"
          in out
          and "worse than the whole A/A spread" in out
          and "2 worse than the A/A spread" in out, out)
    # A gain beyond the whole A/A spread stays "ok".
    rc, out = report([(run_doc(100.0), run_doc(105.0))] * 5, steady,
                     "^BM_ServerQueryThroughput/")
    check("ab_compare report keeps a gain beyond the A/A spread 'ok'",
          rc == 0 and "ok        " + server in out
          and "worse" not in out.split("\n\n")[0], out)
    rc, out = report(lopsided, lopsided, selected)
    check("ab_compare report exits 1 on a metric missing from a side",
          rc == 1 and "missing  BM_TraceReplayThroughput "
          "[shadow_peak_bytes]" in out, out)
    rc, out = report(noisy, noisy, None)
    check("ab_compare report exits 1 on a watched pattern absent from "
          "both sides",
          rc == 1 and "missing  ^BM_WideReplay/ [items_per_second]"
          in out and "REGRESSED" not in out, out)

    # Each side runs micro_dispatch and micro_shadow; their documents
    # merge, so the micro_shadow metrics are compared too.
    def side(rate):
        return ab_compare.merge_docs([
            doc([bench("BM_WideReplay/1", items_per_second=rate)]),
            doc([bench(trace, items_per_second=rate,
                       shadow_peak_bytes=1000),
                 bench("BM_ShadowSpanStride/64", bytes_per_second=rate)]),
        ])
    merged = [(side(100.0), side(110.0))] * 3
    ratios, missing = ab_compare.paired_ratios(merged)
    check("ab_compare compares the merged micro_shadow metrics",
          not missing and {(trace, "items_per_second"),
                           (trace, "shadow_peak_bytes"),
                           ("BM_ShadowSpanStride/64", "bytes_per_second"),
                           ("BM_WideReplay/1", "items_per_second")}
          <= ratios.keys(), ratios)

    # Watched patterns that matched nothing on either side are absent,
    # unless --filter leaves them out; the ones that ran are not.
    absent = ab_compare.absent_patterns(merged)
    check("ab_compare reports watched patterns absent from both sides",
          ("^BM_ShadowPerUnitStride/", "bytes_per_second") in absent
          and ("^BM_TraceDecode/", "items_per_second") in absent
          and ("^BM_TraceReplayThroughput$", "items_per_second")
          not in absent, absent)
    filtered = ab_compare.absent_patterns(
        merged, "^BM_WideReplay/|^BM_ShadowPerUnitStride/")
    check("ab_compare skips absent patterns --filter leaves out",
          filtered == [("^BM_ShadowPerUnitStride/", "bytes_per_second")],
          filtered)
    # Without micro_shadow's document, a filter that selects
    # BM_TraceReplayThroughput reports both its metrics missing.
    dispatch_only = doc([bench("BM_WideReplay/1", items_per_second=1.0)])
    absent = ab_compare.absent_patterns(
        [(dispatch_only, dispatch_only)],
        "^BM_WideReplay/|^BM_TraceReplayThroughput$")
    check("ab_compare reports micro_shadow benchmarks that did not run",
          absent == [("^BM_TraceReplayThroughput$", "items_per_second"),
                     ("^BM_TraceReplayThroughput$", "shadow_peak_bytes")],
          absent)


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

    ab_compare_cases(check)

    if failures:
        print(f"\n{len(failures)} case(s) failed: {failures}")
        return 1
    print("\nall compare_bench.py missing-suite cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
