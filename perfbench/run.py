#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 \
        --seconds 25 --trace 0

The benchmark binary (perfbench/bench.cc) is built with CMake from
perfbench/CMakeLists.txt, which compiles the library from src/.  The
build directory is $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, relative to the
checkout root.  Build output goes to stderr; stdout carries the
benchmark's report, whose last line is the JSON result.  The exit code
is the benchmark's: 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_burst", "serve_churn", "gcn_train")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    bdir = build_dir()
    cmds = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds.append(["cmake", "--build", bdir, "--parallel", jobs])
    for cmd in cmds:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if res.returncode != 0:
            fail("build failed")
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--flip-response", type=int, default=-1,
                    help="self-test: corrupt one bit of this response")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.flip_response >= 0:
        cmd += ["--flip-response", str(args.flip_response)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S, 3)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(res.stdout)
        fail("benchmark exited %d without a result line" % res.returncode,
             res.returncode or 3)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
