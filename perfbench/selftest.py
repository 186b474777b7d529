#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Usage (from the repository root):
    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a small size (``--tiny``, one
second), untraced and traced, through BENCHMARK.json's own command, with all
output checks on. Asserts that the last line has exactly the contract's keys,
that every end-to-end (untraced) or per-layer (traced) metric is printed with
its unit as a finite number, that end-to-end metrics are positive, that the
header reports the measured concurrency, and that no operation failed.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{workload}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    header, result = json.loads(lines[0]), json.loads(lines[-1])
    return header, result, out.stderr


def check(bench, workload, trace):
    header, result, stderr = run(bench, workload, trace)
    where = f"{workload} --trace {trace}"
    host = header["host"]
    assert host["available_parallelism"] >= 1 and host["measured_concurrency"] > 0, where
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: incorrect output\n{stderr}"
    assert result["attempted"] >= 1, where
    assert result["failed"] == 0, f"{where}: fail_ratio {result['failed']}/{result['attempted']}"
    table = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}, where
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        v = got["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), f"{where}: {m['name']} = {v}"
        assert trace or v > 0, f"{where}: {m['name']} = {v}"
    print(f"ok  {where}: {result['attempted']} operations, 0 failed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check(bench, w["name"], trace)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
