#!/usr/bin/env python3
"""Compare two sets of benchmark runs (parent and change), metric by metric.

Usage:
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per workload, ``<workload>.jsonl``, with the
result line (the last line of standard output) of each run, in run order.
Run i of the parent is paired with run i of the change, so alternate which
side runs first and give both sides the same seeds.

For every workload and end-to-end metric in BENCHMARK.json this prints each
side's median and quartiles, the share of pairs the change won (ties count
for neither side), and a verdict:

* ``gain``: the change won at least nine tenths of all pairs and the medians
  differ by more than the parent's own spread (the distance between its
  quartiles);
* ``no worse``: the change's median is not worse than the parent's by more
  than the metric's bound;
* ``regression``: it is worse by more than the bound;
* ``unresolved``: either side's spread is wider than the bound, unless every
  change run reads better than every parent run.

A side whose runs report incorrect output or failed operations is flagged,
and a gain does not count when the change fails more operations than the
parent.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share_won = won / len(pairs) if pairs else 0.0
    if pairs and won >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return share_won, "gain"
    p_spread = (p3 - p1) / abs(pm) if pm else float("inf")
    c_spread = (c3 - c1) / abs(cm) if cm else float("inf")
    if p_spread > bound or c_spread > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return share_won, "no worse (every run better)"
        return share_won, "unresolved"
    worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
    return share_won, "no worse" if worse <= bound else "regression"


def failures(runs):
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs), all(
        r["correct"] for r in runs
    )


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent_dir, change_dir = argv[1], argv[2]
    status = 0
    header = "{:<14} {:<12} {:>11} {:>23} {:>11} {:>23} {:>6}  {}".format(
        "workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "won", "verdict"
    )
    print(header)
    for w in bench["workloads"]:
        name = w["name"]
        pp, cp = (os.path.join(d, name + ".jsonl") for d in (parent_dir, change_dir))
        if not (os.path.exists(pp) and os.path.exists(cp)):
            print("{:<14} (no runs on one side)".format(name))
            continue
        parent, change = load_runs(pp), load_runs(cp)
        pf, pa, pok = failures(parent)
        cf, ca, cok = failures(change)
        for m in bench["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in parent]
            cv = [r["metrics"][m["name"]]["value"] for r in change]
            share, v = verdict(pv, cv, m["better"], m["bound"])
            if v == "gain" and cf > pf:
                v = "no gain (more failed operations)"
            if v == "regression":
                status = 1
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(
                "{:<14} {:<12} {:>11.5g} {:>11.5g}..{:<11.5g} {:>11.5g} {:>11.5g}..{:<11.5g} {:>5.0%}  {}".format(
                    name, m["name"], pm, p1, p3, cm, c1, c3, share, v
                )
            )
        for side, f_, a_, ok in (("parent", pf, pa, pok), ("change", cf, ca, cok)):
            if f_ or not ok:
                print("{:<14} {} runs: {} of {} operations failed".format(name, side, f_, a_))
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
