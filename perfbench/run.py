#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness package in
``perfbench/harness`` (into ``$CARGO_TARGET_DIR``, default
``.bench_build``), runs the named workload in a process of its own, and
prints the harness's JSON result as the last line of standard output:
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. A failed build, a failed output
check or a malformed result exits non-zero without printing a result.
``perfbench/NOTES.md`` describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "harness" / "Cargo.toml"
WORKLOADS = ("diurnal-served", "tot-pushing")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir / "release" / "perfbench-harness"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line must have exactly the shape BENCHMARK.json promises."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        raise ValueError("result is not marked correct")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} = {result[key]!r}")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name} = {value!r}")
        if m.get("unit") != want[name]:
            raise ValueError(f"{name} unit {m.get('unit')!r}, want {want[name]!r}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        fail(f"--seconds {args.seconds} out of range 1..60")

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    binary = build(target_dir)
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    if done.returncode != 0:
        fail(f"{args.workload} failed with exit code {done.returncode}", 3)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the harness printed no result", 3)
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, AttributeError, json.JSONDecodeError) as e:
        fail(f"malformed result: {e}", 3)
    for line in lines[:-1]:
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
