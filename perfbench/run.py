#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig5_failover --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the evm library from src/ plus the
perfbench program) into .bench_build/perfbench, then runs the program on one
workload. It prints its tables and, as the last stdout line, one JSON
object {correct, attempted, failed, metrics}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. `--workload all` runs every
workload in turn and ends with one JSON object keyed by workload.

Exits non-zero, without a result line, when the build or any run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("fig5_failover", "grid1000_failover", "fuzz_mix")
# Added to --seconds for the last untraced pass, which may end after the
# window, and for the traced pass.
TIMEOUT_MARGIN_S = 120


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A failed configure leaves a cache that would skip this step.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def run_workload(name, args):
    """Run the program once; return its result object, or None on failure."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT, "--out", OUT]
    timeout = args.seconds + TIMEOUT_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} exceeded {timeout:g} s", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {name} printed no result line", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
    final = results if args.workload == "all" else results[args.workload]
    print(json.dumps(final, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
