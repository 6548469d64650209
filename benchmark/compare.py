#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 benchmark/compare.py [--same] A/ B/

A/ and B/ each hold the per-run JSON files `run.py --out DIR` writes
(<workload>.e2e.<i>.json), typically N runs of a parent commit and N runs
of a change.  For every workload x end-to-end metric it prints both sets'
median and quartiles and a verdict, using the bounds in BENCHMARK.json:

  unresolved  either set's spread (q3 - q1) / median exceeds the bound,
              unless every B run is better than every A run
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  unchanged   otherwise

The exact counters of a result (its "exact" object) must repeat across
the same-seed runs of one set.  Between A and B, each changed counter is
printed with its direction (the metric's "better" in BENCHMARK.json;
lower for a per-op cost it does not list), and a counter that got worse
fails.  --same declares A and B two sets of one commit: then any changed
counter fails.  A rise in the failed-op fraction also fails.

Exit status 1 when any metric is worse or unresolved, an exact counter
fails as above, or failures rose; 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    """(q1, median, q3) of the values, by the inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.e2e.*.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    if not runs:
        sys.exit(f"compare.py: no *.e2e.*.json results in {directory}")
    return runs


def verdict(a, b, bound, lower_is_better):
    better = (lambda x, y: x < y) if lower_is_better else (lambda x, y: x > y)
    if spread(a) > bound or spread(b) > bound:
        if all(better(y, x) for x in a for y in b):
            return "better"
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == 0:
        return "unchanged" if mb == 0 else "unresolved"
    worse_by = (mb - ma) / ma if lower_is_better else (ma - mb) / ma
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def exact_set(runs):
    """The exact counters of one set, or None if its runs disagree."""
    first = runs[0].get("exact", {})
    return first if all(r.get("exact", {}) == first for r in runs) else None


def exact_changes(ea, eb, directions, same):
    """Report lines for counters that differ, and whether any fails."""
    lines, bad = [], False
    for k in sorted(set(ea) | set(eb)):
        va, vb = ea.get(k), eb.get(k)
        if va == vb:
            continue
        if k == "ops" or va is None or vb is None:
            move, failed = "not comparable", True  # different workload sizes
        else:
            lower = directions.get(k, "lower") == "lower"
            move = "better" if (vb < va) == lower else "worse"
            failed = same or move == "worse"
        lines.append(f"{k} {va} -> {vb} {move}")
        bad |= failed
    return lines, bad


def fail_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    p = argparse.ArgumentParser(description="Compare two sets of runs.")
    p.add_argument("--same", action="store_true",
                   help="A and B are two sets of one commit: exact counters "
                        "must be identical")
    p.add_argument("a")
    p.add_argument("b")
    args = p.parse_args()
    spec = json.loads(SPEC.read_text())
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load(args.a), load(args.b)
    bad = False
    print(f"{'workload':<17} {'metric':<13} {'A median':>11} {'A q1-q3':>23} "
          f"{'B median':>11} {'B q1-q3':>23} {'bound':>6}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in a_runs or w not in b_runs:
            print(f"{w:<17} missing from {'A' if w not in a_runs else 'B'}")
            bad = True
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in a_runs[w]]
            b = [r["metrics"][m["name"]] for r in b_runs[w]]
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            bad |= v in ("worse", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            print(f"{w:<17} {m['name']:<13} {qa[1]:>11.5g} "
                  f"{qa[0]:>11.5g}-{qa[2]:<11.5g} {qb[1]:>11.5g} "
                  f"{qb[0]:>11.5g}-{qb[2]:<11.5g} {m['bound']:>6.2f}  {v}")
        ea, eb = exact_set(a_runs[w]), exact_set(b_runs[w])
        if ea is None or eb is None:
            print(f"{w:<17} exact counters differ between same-seed runs "
                  f"of {'A' if ea is None else 'B'}")
            bad = True
        elif ea or eb:
            lines, failed = exact_changes(ea, eb, directions, args.same)
            print(f"{w:<17} exact counters: "
                  f"{'; '.join(lines) if lines else 'identical'}")
            bad |= failed
        fa, fb = fail_frac(a_runs[w]), fail_frac(b_runs[w])
        if fb > fa:
            print(f"{w:<17} failed-op fraction rose: {fa:.3g} -> {fb:.3g}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
