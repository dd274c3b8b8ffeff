#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload web_lan --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench at the
repo root, then runs thincbench. Build output goes to stderr; thincbench's
report goes to stdout and its last line is the JSON result. The exit code is
thincbench's: non-zero when the build fails or a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "thincbench"

WORKLOADS = ("web_lan", "av_lan", "cluster_mixed")
# The seed used when none is given, and one kept out of every tuning run so
# a claimed gain can be re-checked on inputs nobody tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729


def build():
    """Configures (once) and builds thincbench; returns True on success."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A half-written cache would make the next run skip configure.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_bench(workload, seed, seconds, trace):
    """Runs the built thincbench once; returns (exit code, stdout text)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = seconds + 100  # a normal run overshoots by one episode
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, out = run_bench(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
