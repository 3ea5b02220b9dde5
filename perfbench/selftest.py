#!/usr/bin/env python3
"""Self-test of the benchmark's output.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs perfbench/run.py twice with
--trace 0 and twice with --trace 1, all on seed 7 with a 1 s window, and
checks that:
  - the last line holds exactly correct, attempted, failed and metrics, with
    correct true and failed 0;
  - the metrics are exactly BENCHMARK.json's end_to_end (--trace 0) or
    per_layer (--trace 1) names, each carrying its declared unit, and every
    name and unit is well formed;
  - every metric the benchmark is specified to report is declared in
    BENCHMARK.json, or printed in the tables with a unit (run_ms_p90 where it
    has ten samples beyond it, runs, runs_failed);
  - end-to-end metrics are never 0;
  - simulated and count metrics repeat exactly across the two runs.
Then it copies BENCHMARK.json and perfbench/ alone into a scratch directory
under .bench_build and checks that the benchmark fails there without
printing a result. Exits 1 on the first failed check.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7
SECONDS = 1
# Units of values that are a pure function of (workload, seed); the rest are
# host measurements (time, memory) and may differ between runs.
DETERMINISTIC_UNITS = {"count", "ratio", "slots", "sim_s", "%"}
# Printed in the tables only: a tail percentile with at least ten samples
# beyond it, and the run counts that also fill attempted and failed.
TABLE_ONLY = ("runs", "runs_failed")
TAIL = "run_ms_p90"
# Every metric the benchmark is specified to report, wherever it lands.
NAMED = (
    "wall_s", "setup_s", "run_s", "report_s", "run_ms_p50", TAIL, "peak_rss_mb",
    "sim_failover_s_p50", "sim_level_rmse_pct_p50") + TABLE_ONLY + (
    "scenario.load_ms", "scenario.validate_ms", "testbed.topology_validate_ms",
    "testbed.diameter_ms", "testbed.plan_schedule_ms", "testbed.build_ms",
    "testbed.start_ms", "testbed.collect_metrics_ms", "runner.setup_ms",
    "runner.run_ms", "runner.teardown_ms", "campaign.report_ms",
    "sim.events_dispatched", "sim.queue_depth_max", "sim.ns_per_event",
    "net.medium.deliveries", "net.medium.losses", "net.medium.collisions",
    "net.medium.delivery_ratio", "net.rtlink.frames_run", "net.rtlink.slots_used",
    "net.mac.enqueued", "net.mac.queue_drops", "net.route.broadcasts_originated",
    "net.route.broadcast_relays", "net.route.slots_per_broadcast",
    "rtos.task_releases", "rtos.deadline_misses", "core.service.failovers",
    "core.service.head_successions", "invariants.checks", "invariants.overhead_ms",
    "trace.net.medium", "trace.net.rtlink", "trace.net.route",
    "trace.core.service", "trace.core.node", "trace.overhead_ms")


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=root)


def check_result(workload, trace, proc, declared):
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if not NAME.match(name) or not UNIT.match(m["unit"]):
            fail(f"{workload}: malformed metric {name!r} unit {m['unit']!r}")
        if m["unit"] != declared[name]:
            fail(f"{workload}: {name} unit {m['unit']} != declared {declared[name]}")
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} value {m['value']!r}")
        if trace == 0 and m["value"] == 0:
            fail(f"{workload}: end-to-end metric {name} is 0")
    table = "\n".join(lines[:-1])
    for name in TABLE_ONLY:
        if not re.search(rf"^\s+{name}\s+\S+ count", table, re.M):
            fail(f"{workload}: table lacks {name}")
    tail = re.search(rf"^\s+{TAIL}\s+\S+ ms\s+\((\d+) samples\)", table, re.M)
    if tail and int(tail.group(1)) < 100:
        fail(f"{workload}: {TAIL} printed with only {tail.group(1)} samples")
    return metrics


def check_bare_checkout():
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "fig5_failover", 1, 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        fail("benchmark succeeded without the repository's sources")
    last = proc.stdout.rstrip("\n").split("\n")[-1] if proc.stdout.strip() else ""
    if last.startswith("{"):
        fail("benchmark printed a result without the repository's sources")
    print(f"ok  bare checkout: exit {proc.returncode}, no result line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared_names = set()
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                fail(f"BENCHMARK.json: malformed {m}")
            declared_names.add(m["name"])
    missing = set(NAMED) - declared_names - set(TABLE_ONLY) - {TAIL}
    if missing:
        fail(f"BENCHMARK.json lacks {sorted(missing)}")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[group]}
            first, second = (
                check_result(workload, trace,
                             run(ROOT, workload, SEED, SECONDS, trace), declared)
                for _ in range(2))
            for name, m in first.items():
                if m["unit"] in DETERMINISTIC_UNITS and m["value"] != second[name]["value"]:
                    fail(f"{workload}: {name} differs across same-seed runs: "
                         f"{m['value']} vs {second[name]['value']}")
            print(f"ok  {workload} --trace {trace}: {len(first)} metrics, "
                  f"deterministic ones repeat exactly")
    check_bare_checkout()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
