#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/; later calls rebuild incrementally. The benchmark's own output
goes to standard output, whose last line is the JSON result; build output
goes to standard error. Exits nonzero, printing no result, when the build
fails or the sources are missing.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ddm_perfbench")
WORKLOADS = ["serve-php", "alloc-php", "replay-ruby", "simulate"]
# The host is shared: build with at most three jobs.
BUILD_JOBS = "3"


def call(cmd, **kwargs):
    """Runs cmd and waits for it. SIGTERM or SIGINT to this script is passed
    on to cmd, which is waited for, so no process outlives the script."""
    child = subprocess.Popen(cmd, **kwargs)

    def stop(signum, frame):
        child.send_signal(signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        code = child.wait()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    return 128 - code if code < 0 else code


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
    for cmd in steps:
        if call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-trace", choices=["truncate", "flip"],
                        help="smoke test: damage replay-ruby's trace")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    if args.corrupt_trace:
        cmd += ["--corrupt-trace", args.corrupt_trace]
    sys.stdout.flush()
    return call(cmd)


if __name__ == "__main__":
    sys.exit(main())
