#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady across seeds.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1]

Runs `perfbench/run.py --trace 0` once per seed (seeds 1 .. runs), for
BENCHMARK.json's run_seconds, on each workload in BENCHMARK.json. For every
end-to-end metric it prints the
median, the quartiles from statistics.quantiles(values, n=4), the spread
(q3 - q1) / median and the metric's bound (with --sets 2, the larger spread
of the two sets). A metric holds when its spread is within its bound; it is
steady when the spread is below a third of the bound. With --sets 2 the same
seeds run a second time, and every metric must have a second median no
worse than the first by more than its bound.

Prints a verdict line naming every metric that does not hold and exits 1 if
there is one. The raw values land in .bench_build/perfbench/steadiness.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed run(s)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    metrics = bench["end_to_end"]
    seeds = range(1, args.runs + 1)
    raw, problems = {}, []
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for seed in seeds:
                got = run_once(workload, seed, bench["run_seconds"])
                for m in metrics:
                    values[m["name"]].append(got[m["name"]])
                print(f"  {workload} set {s + 1} seed {seed} done", file=sys.stderr)
            sets.append(values)
        raw[workload] = sets

        print(f"== {workload}: {args.runs} seeds x {args.sets} set(s), "
              f"{bench['run_seconds']} s per run")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            median, q1, q3, _ = summarize(sets[0][name])
            spread = max(summarize(values[name])[3] for values in sets)
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "holds, spread above bound/3"
            else:
                verdict = "DOES NOT HOLD"
                problems.append(f"{workload}.{name} spread {spread:.3f} > {bound}")
            if args.sets == 2:
                second = statistics.median(sets[1][name])
                change = (second - median) / median if median else 0.0
                worse = change if m["better"] == "lower" else -change
                verdict += f"; set 2 median {second:.6g} ({change:+.1%})"
                if worse > bound:
                    verdict += " DOES NOT HOLD"
                    problems.append(f"{workload}.{name} set 2 worse by {worse:.3f} > {bound}")
            print(f"  {name:24} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound:6.2f}  {verdict}")

    os.makedirs(os.path.join(ROOT, ".bench_build", "perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench", "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    if problems:
        print("NOT STEADY: " + "; ".join(problems))
        return 1
    print("steady: every end-to-end metric holds its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
