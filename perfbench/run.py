#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload live_collect --seed 1 \
        --seconds 10 --trace 0

Builds the repository's libraries and the benchmark binary with
optimization into .bench_build (the first run compiles, later runs only
check that the build is current), makes a scratch directory under
.bench_tmp for traces and the server socket, runs the binary there and
removes the directory again, whatever happened. The binary's standard
output passes through unchanged: its last line is the result object.
Build output goes to standard error. The exit code is the binary's.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sigil_perfbench")
WORKLOADS = ("live_collect", "replay_analyze", "query_serve")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no sources under %s/src; run from a full "
                 "checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target",
                    "sigil_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    # Paths handed to the binary are relative to the checkout root so
    # the socket path stays far below the 107-byte sun_path limit.
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="r", dir=os.path.join(ROOT, ".bench_tmp"))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", os.path.relpath(tmp, ROOT),
           "--digests", os.path.relpath(
               os.path.join(HERE, "profile_digests.txt"), ROOT)]
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        cmd += ["--spans", os.path.join(
            ".bench_out", "spans-%s-seed%d.jsonl" % (args.workload,
                                                     args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code if code > 0 else (1 if code < 0 else 0))


if __name__ == "__main__":
    main()
