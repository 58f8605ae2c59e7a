#!/usr/bin/env python3
"""Compares two sets of benchmark results, or reports one set's spread.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --spread RESULTS.jsonl

Input files hold one JSON object per line, as `run.py --record FILE` writes
them: {"workload", "seed", "trace", "result": {"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}}. Only untraced runs
(trace 0) are compared, and only the end-to-end metrics BENCHMARK.json lists.

Compare mode prints one row per workload and end-to-end metric, with each
side's median and quartiles and one verdict, using the benchmark's own
bounds and the paired-runs rule:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ, in the better direction,
              by more than the parent's interquartile spread
  unresolved  the parent's own spread is wider than the bound and the change
              does not read better on every run than the parent on every run
  worse       the change's median is worse than the parent's by more than the
              bound (a share of the parent's median)
  no worse    everything else

Runs pair by seed; seeds present on one side only are left out. A run that
was not correct makes its workload's rows "invalid". --spread prints each
workload's median and (Q3 - Q1) / median per metric, against its bound.
The exit status is 1 when any row is worse or invalid.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def load_runs(path):
    """{workload: {seed: result}} for the untraced runs in a results file."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace", 0) != 0:
                continue
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict for paired value lists (same seed order)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gain > (p3 - p1):
        return "improved"
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "no worse"


def compare(parent_path, change_path):
    bench = load_benchmark()
    parent, change = load_runs(parent_path), load_runs(change_path)
    bad = False
    print(f"{'workload':<14} {'metric':<24} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  pairs  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not seeds:
            print(f"{workload:<14} (no paired runs)")
            continue
        invalid = any(not parent[workload][s]["correct"] or not change[workload][s]["correct"]
                      for s in seeds)
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            cv = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            v = "invalid" if invalid else verdict(pv, cv, m["better"], m["bound"])
            bad = bad or v in ("worse", "invalid")
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{workload:<14} {name:<24} "
                  f"{pq[1]:>14.6g} [{pq[0]:.6g}, {pq[2]:.6g}]".ljust(75) +
                  f"{cq[1]:>14.6g} [{cq[0]:.6g}, {cq[2]:.6g}]".ljust(35) +
                  f"  {len(seeds):>5}  {v}")
    return 1 if bad else 0


def spread(path):
    bench = load_benchmark()
    runs = load_runs(path)
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        results = list(runs.get(workload, {}).values())
        if not results:
            continue
        incorrect = sum(1 for r in results if not r["correct"])
        print(f"{workload}: {len(results)} runs, {incorrect} not correct")
        bad = bad or incorrect > 0
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else float("inf")
            flag = "" if share < m["bound"] / 3 else (
                "  above a third of the bound" if share <= m["bound"] else "  ABOVE BOUND")
            print(f"  {m['name']:<24} median {med:<14.6g} spread {share:8.4f} "
                  f"(bound {m['bound']}){flag}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spread", metavar="RESULTS", help="report one set's spread")
    parser.add_argument("files", nargs="*", metavar="PARENT CHANGE")
    args = parser.parse_args()
    if args.spread:
        return spread(args.spread)
    if len(args.files) != 2:
        parser.error("give PARENT and CHANGE result files, or --spread RESULTS")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
