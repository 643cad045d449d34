#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs each serve workload once as is, which must pass, and once with a
single bit of one served response flipped before its check, which must
fail the run: a result line with "correct": false and "failed" >= 1,
and a non-zero exit code.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
FLIPPED_RESPONSE = 100  # past every set-up response


def run(workload, flip):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0"]
    if flip:
        cmd += ["--flip-response", str(FLIPPED_RESPONSE)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=600)
    return res.returncode, json.loads(res.stdout.strip().split("\n")[-1])


def main():
    bad = 0
    for workload in ("serve_hot", "serve_burst", "serve_churn"):
        code, r = run(workload, flip=False)
        clean_ok = code == 0 and r["correct"] and r["failed"] == 0
        code_f, rf = run(workload, flip=True)
        flip_ok = code_f != 0 and not rf["correct"] and rf["failed"] >= 1
        print("%-12s clean run passes: %s; one flipped bit fails it: %s"
              % (workload, clean_ok, flip_ok))
        bad += (not clean_ok) + (not flip_ok)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
