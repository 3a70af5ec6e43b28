#!/usr/bin/env python3
"""Compares two sets of ledger results files written by benchmark/run.py.

  python3 benchmark/compare.py --base A1.json A2.json ... --new B1.json ...

Prints one row per (workload, metric): each side's median and quartiles,
the change of the medians, and for end-to-end metrics a verdict against the
metric's bound in BENCHMARK.json:

  unresolved  a side's quartile spread (Q3 - Q1 over the median) exceeds the
              bound, unless every new run reads better than every base run;
  worse       the new median is worse than the base median by more than the
              bound;
  better      the new median is better by more than the bound;
  same        otherwise.

Per-layer metrics have no bound and get no verdict; a layer that reads 0 on
both sides (one the workload bypasses) is not printed. Exits 1 when any
end-to-end pair is worse or unresolved. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{(workload, kind, metric): [values]} over a set of results files."""
    values = {}
    for path in paths:
        with open(path) as f:
            results = json.load(f)
        for workload, record in results["workloads"].items():
            for kind in ("end_to_end", "per_layer"):
                for name, metric in record[kind].items():
                    values.setdefault((workload, kind, name), []).append(
                        metric["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base, new, spec):
    """Verdict for one end-to-end metric (see the module docstring)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base_median = quartiles(base)[1]
    new_median = quartiles(new)[1]
    worse_by = (sign * (new_median - base_median) / abs(base_median)
                if base_median else 0.0)
    all_better = all(sign * n < sign * b for n in new for b in base)
    if max(spread(base), spread(new)) > spec["bound"] and not all_better:
        return "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    if worse_by < -spec["bound"]:
        return "better"
    return "same"


def fmt(value):
    return f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True,
                        help="results files of the base commit")
    parser.add_argument("--new", nargs="+", required=True,
                        help="results files of the new commit")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(args.base)
    new = load(args.new)

    print(f"{'workload':18} {'metric':38} {'unit':6} "
          f"{'base median [Q1, Q3]':34} {'new median [Q1, Q3]':34} "
          f"{'change':>8}  verdict")
    failing = 0
    for key in sorted(base.keys() & new.keys(),
                      key=lambda k: (k[0], k[1] != "end_to_end", k[2])):
        workload, kind, name = key
        b, n = base[key], new[key]
        if not any(b) and not any(n):
            continue  # a layer this workload bypasses
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        if kind == "end_to_end" and name in bounds:
            v = verdict(b, n, bounds[name])
            failing += v in ("worse", "unresolved")
        else:
            v = "-"
        unit = units.get(name, "")
        print(f"{workload:18} {name:38} {unit:6} "
              f"{fmt(bq[1]) + ' [' + fmt(bq[0]) + ', ' + fmt(bq[2]) + ']':34} "
              f"{fmt(nq[1]) + ' [' + fmt(nq[0]) + ', ' + fmt(nq[2]) + ']':34} "
              f"{change:+8.1%}  {v}")
    only = base.keys() ^ new.keys()
    for workload, kind, name in sorted(only):
        print(f"{workload:18} {name:38} present on one side only")
    print(f"{len(args.base)} base run(s), {len(args.new)} new run(s); "
          f"{failing} end-to-end pair(s) worse or unresolved")
    return 1 if failing or only else 0


if __name__ == "__main__":
    sys.exit(main())
