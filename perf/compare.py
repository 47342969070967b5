#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    python3 perf/compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC]...

Each directory holds the smac_perf metrics files (--metrics, or the files
perf/run.py leaves in perf/build/runs/) of at least 10 runs, made as
alternating parent/change pairs with the same seeds and --seconds; files
are paired in sorted-name order. Prints one row per workload.

A claimed WORKLOAD:METRIC is a gain only when the change is better in at
least 9 of every 10 pairs (ties count for neither side) and the medians
differ, in the better direction, by more than the parent's interquartile
range; a change with more failed units than the parent claims nothing.
Every other end-to-end metric must not be worse than the parent's median
by more than its BENCHMARK.json bound; where the parent's own spread
exceeds the bound the metric is "unresolved", unless every change run is
better than every parent run. Exits 1 on a regression or an unmet claim.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load(directory):
    """[{workload: entry}] per metrics file, in sorted-name order."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            data = json.load(f)
        if "workloads" in data:
            runs.append(data["workloads"])
    return runs


def series(runs, workload, metric):
    return [r[workload]["end_to_end"][metric]["value"]
            for r in runs if workload in r and "end_to_end" in r[workload]]


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def judge_claim(parent, change, direction, failures_up):
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    shift = med_c - med_p if direction == "higher" else med_p - med_c
    if failures_up:
        return "CLAIM NOT MET (more failed units)"
    if wins >= 0.9 * len(pairs) and shift > iqr(parent):
        return "GAIN (%d/%d pairs)" % (wins, len(pairs))
    return "CLAIM NOT MET (%d/%d pairs, shift %.4g vs parent IQR %.4g)" % (
        wins, len(pairs), shift, iqr(parent))


def judge_bound(parent, change, direction, bound):
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    worse = (med_p - med_c if direction == "higher" else med_c - med_p) / med_p
    if iqr(parent) / med_p > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return "better"
        return "unresolved (spread %.1f%% > bound)" % (
            100 * iqr(parent) / med_p)
    return "REGRESSION" if worse > bound else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    claims = set()
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if not metric:
            parser.error("--claim takes WORKLOAD:METRIC, got " + claim)
        claims.add((workload, metric))

    bad = False
    for w in (w["name"] for w in bench["workloads"]):
        failures_up = (sum(r[w]["failed"] for r in change if w in r) >
                       sum(r[w]["failed"] for r in parent if w in r))
        cells = []
        for spec in bench["end_to_end"]:
            p = series(parent, w, spec["name"])
            c = series(change, w, spec["name"])
            if min(len(p), len(c)) < MIN_PAIRS:
                verdict = "unresolved (%d pairs < %d)" % (min(len(p), len(c)),
                                                          MIN_PAIRS)
            elif (w, spec["name"]) in claims:
                verdict = judge_claim(p, c, spec["better"], failures_up)
            else:
                verdict = judge_bound(p, c, spec["better"], spec["bound"])
            bad = bad or verdict.startswith(("REGRESSION", "CLAIM NOT MET"))
            if p and c:
                med_p, med_c = statistics.median(p), statistics.median(c)
                verdict += " [%.4g -> %.4g %s, %+.1f%%]" % (
                    med_p, med_c, spec["unit"], 100 * (med_c - med_p) / med_p)
            cells.append("%s: %s" % (spec["name"], verdict))
        print("%-20s %s" % (w, "; ".join(cells)))
    for workload, metric in claims:
        if workload not in (w["name"] for w in bench["workloads"]) or metric \
                not in (m["name"] for m in bench["end_to_end"]):
            print("unknown claim %s:%s" % (workload, metric))
            bad = True
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
