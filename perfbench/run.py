#!/usr/bin/env python3
"""Builds the benchmark and runs one workload in a fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper_hour|tcp_gateway|alarm_churn> \
        --seed N --seconds S --trace <0|1>

The build uses CARGO_TARGET_DIR when it is set (perfbench/target
otherwise). The last line of standard output is the JSON result; build
output and diagnostics go to standard error. Any failure - a build
error, a ground-truth divergence, a run past its time limit - exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main(args):
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "sa-perfbench")
    cmd = [binary, *args, "--out-dir", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return done.returncode
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS or result["correct"] is not True:
        sys.stderr.write(done.stdout)
        print("perfbench: the run printed no valid result", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
