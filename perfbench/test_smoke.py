#!/usr/bin/env python3
"""Smoke test of the benchmark: one cycle of every workload, untraced and
traced, checked against BENCHMARK.json.

    python3 perfbench/test_smoke.py            # all workloads
    python3 perfbench/test_smoke.py peerd-fleet

For each run it checks that the last stdout line is the result object with
exactly the keys correct/attempted/failed/metrics, that the run is correct
with no failed op, and that the metrics are exactly the end-to-end
(--trace 0) or per-layer (--trace 1) metrics named in BENCHMARK.json, each
with its unit. Exits non-zero on the first mismatch.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--one-cycle"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{where}: correct={result['correct']} attempted="
                             f"{result['attempted']} failed={result['failed']}")
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    expected = {m["name"]: m["unit"] for m in wanted}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
        raise AssertionError(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError(f"{where}: {name} is not a finite number")
    if trace == 0:
        for name in expected:
            if result["metrics"][name]["value"] <= 0:
                raise AssertionError(f"{where}: end-to-end metric {name} is not positive")
    predictions = [l for l in lines if l.startswith("warning: prediction failed")]
    for line in predictions:
        print(f"  {where}: {line}")
    print(f"ok  {where}: {len(printed)} metrics, {result['attempted']} ops")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    selected = sys.argv[1:] or names
    for workload in selected:
        if workload not in names:
            raise SystemExit(f"unknown workload {workload}")
        for trace in (0, 1):
            check_run(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
