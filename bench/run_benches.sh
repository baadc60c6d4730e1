#!/usr/bin/env sh
# Run the shadow-path and event-transport microbenchmarks and record the
# results as BENCH_shadow.json and BENCH_dispatch.json at the repo root.
# Future PRs compare against these files to keep the perf trajectory
# honest (see bench/compare_bench.py).
#
# Benchmarks are configured and built Release (-O2, NDEBUG): numbers
# from unoptimized builds are not comparable and must never become
# baselines. The script refuses a build tree configured Debug, and
# refuses to record a baseline whose JSON context reports
# "library_build_type": "debug" — that field reports how the
# benchmark *library* was compiled, and a debug harness taxes every
# timed iteration. The default build links the bundled bench/minibench
# shim (always built with the project's own flags), so this only
# trips when SIGIL_SYSTEM_BENCHMARK=ON picked up a debug
# libbenchmark; compare_bench.py rejects such candidates too.
#
# BENCH_dispatch.json includes BM_WideReplay (profiled replay of a
# wide-address workload, re-use tracking on), the
# BM_TraceDecode{,Profiled} serial frame decode of the recorded SGB3
# trace (parse-only and profiled end to end), and the
# BM_ServerQueryThroughput sigild sweep (Arg = concurrent query
# clients over the daemon's Unix-domain socket; items/sec is
# end-to-end requests per second through framing, dispatch, the
# catalog's stored answers, and the socket round-trip; each answer is
# checked against the in-process rendering). The JSON context carries a
# machine manifest ("num_cpus", "cpu_model", "kernel") and
# compare_bench.py refuses a baseline recorded on different hardware.
#
# Usage: bench/run_benches.sh [build-dir] [extra benchmark args...]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-release"
if [ $# -gt 0 ]; then
    case $1 in
        -*) ;; # benchmark flag, leave it for the binary
        *) build_dir=$1; shift ;;
    esac
fi

if [ -f "$build_dir/CMakeCache.txt" ]; then
    # Reusing an existing tree: refuse one configured Debug. An empty
    # CMAKE_BUILD_TYPE is fine — the top-level CMakeLists defaults it
    # to RelWithDebInfo (-O2, NDEBUG).
    if grep -q '^CMAKE_BUILD_TYPE:[^=]*=Debug$' \
            "$build_dir/CMakeCache.txt"; then
        echo "error: $build_dir is configured CMAKE_BUILD_TYPE=Debug;" \
             "benchmark baselines must come from an optimized build." >&2
        echo "       Use bench/run_benches.sh with no build-dir" \
             "argument to build Release into $repo_root/build-release." >&2
        exit 1
    fi
    if grep -q 'SIGIL_SANITIZE:[^=]*=..*' "$build_dir/CMakeCache.txt"; then
        echo "error: $build_dir is a sanitizer build; benchmark" \
             "baselines must come from a plain Release build." >&2
        exit 1
    fi
else
    cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" --target micro_shadow micro_dispatch -j

run_bench() {
    bin=$1
    out=$2
    shift 2
    tmp="$out.tmp"
    "$build_dir/bench/$bin" \
        --benchmark_format=json \
        --benchmark_out="$tmp" \
        --benchmark_out_format=json \
        "$@"
    if grep -q '"library_build_type": *"debug"' "$tmp"; then
        rm -f "$tmp"
        echo "error: the linked benchmark library is a debug build" \
             "(\"library_build_type\": \"debug\"); refusing to record" \
             "$out." >&2
        echo "       Reconfigure without SIGIL_SYSTEM_BENCHMARK (the" \
             "bundled minibench shim inherits the project's Release" \
             "flags) or install a Release google-benchmark." >&2
        exit 1
    fi
    mv "$tmp" "$out"
    echo "wrote $out"
}

run_bench micro_shadow "$repo_root/BENCH_shadow.json" "$@"
run_bench micro_dispatch "$repo_root/BENCH_dispatch.json" "$@"
