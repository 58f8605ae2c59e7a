#!/usr/bin/env python3
"""Builds and runs the broker benchmark (one workload, one seed, one run).

    python3 perfbench/run.py --workload hit-fastpath --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the repository's libraries from src/ plus the
benchmark binary) under $CARGO_TARGET_DIR, or .bench_build when unset; later
runs only re-check the build. The binary's output is passed through: a table
of metrics with their sample counts, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics (with --workload all,
one such block per workload, in turn).

--record FILE appends {"workload", "seed", "trace", "result"} as one JSON line
to FILE, the input format of perfbench/compare.py. Exit status: 0 for a
correct run, non-zero for a failed build, a failed check or a bad argument
(no result line is printed when nothing was measured).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hit-fastpath", "miss-channel", "flash-crowd", "tier-forward")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 178


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    binary = os.path.join(build_dir, "broker_bench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "broker_bench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", help="append this run's result to a JSON-lines file")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed non-negative")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        rc = run_one(binary, workload, args)
        status = status or rc
    return status


def run_one(binary, workload, args):
    """Runs one workload, passes its output through; returns its exit status."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    if args.record:
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps({"workload": workload, "seed": args.seed,
                                  "trace": args.trace, "result": result}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
