#!/usr/bin/env python3
"""Shape test of the benchmark (ctest -L perf).

    python3 perf/validate.py SMAC_PERF OUT_DIR

Runs every workload at --smoke size once untraced and once traced, then
checks the metrics files and the Chrome trace against BENCHMARK.json:
host fingerprint, every end-to-end metric (and, traced, every per-layer
metric) present with its unit and a finite value, no failed unit, and
well-formed trace events whose parents exist.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = {"nproc", "cpu_model", "compiler", "build_type", "git_sha"}
EVENT_KEYS = {"name", "ph", "ts", "dur", "pid", "tid", "args"}
ARG_KEYS = {"id", "parent", "workload", "self_us"}


def check_metrics(path, bench, traced, problems):
    with open(path) as f:
        data = json.load(f)
    if set(data["host"]) != HOST_KEYS:
        problems.append("%s: host keys %s" % (path, sorted(data["host"])))
    if data["host"].get("build_type") != "Release":
        problems.append("%s: not a Release build" % path)
    names = [w["name"] for w in bench["workloads"]]
    if sorted(data["workloads"]) != sorted(names):
        problems.append("%s: workloads %s" % (path, sorted(data["workloads"])))
    sections = ["end_to_end"] + (["per_layer"] if traced else [])
    for name, entry in data["workloads"].items():
        where = "%s: %s" % (path, name)
        if entry.get("correct") is not True or entry.get("failed") != 0:
            problems.append("%s: failed %s" % (where, entry.get("failures")))
        if not isinstance(entry.get("attempted"), int) or entry["attempted"] < 1:
            problems.append("%s: attempted %r" % (where, entry.get("attempted")))
        if ("per_layer" in entry) != traced:
            problems.append("%s: per_layer present = %s" % (where, not traced))
        for section in sections:
            for spec in bench[section]:
                got = entry.get(section, {}).get(spec["name"])
                if (got is None or got.get("unit") != spec["unit"] or
                        not isinstance(got.get("value"), (int, float)) or
                        not math.isfinite(got["value"])):
                    problems.append("%s: %s.%s = %r" %
                                    (where, section, spec["name"], got))
                elif section == "end_to_end" and not got["value"] > 0:
                    problems.append("%s: %s is not positive" %
                                    (where, spec["name"]))


def check_trace(path, bench, problems):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        problems.append(path + ": no trace events")
    ids = {e["args"]["id"] for e in events}
    seen = set()
    for e in events:
        if set(e) - {"cat"} != EVENT_KEYS or set(e["args"]) != ARG_KEYS:
            problems.append("%s: malformed event %r" % (path, e))
            break
        if e["ph"] != "X" or e["dur"] < 0 or e["args"]["self_us"] < -1e-3:
            problems.append("%s: bad timing %r" % (path, e))
            break
        if e["args"]["parent"] != 0 and e["args"]["parent"] not in ids:
            problems.append("%s: dangling parent %r" % (path, e))
            break
        seen.add(e["args"]["workload"])
    missing = {w["name"] for w in bench["workloads"]} - seen
    if missing:
        problems.append("%s: no spans for %s" % (path, sorted(missing)))


def main():
    binary, out = sys.argv[1], sys.argv[2]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for traced in (False, True):
        metrics = os.path.join(out, "traced.json" if traced else "untraced.json")
        trace = os.path.join(out, "trace.json")
        cmd = [binary, "--workload", "all", "--smoke", "--seconds", "0.3",
               "--metrics", metrics] + (["--trace", trace] if traced else [])
        status = subprocess.run(cmd).returncode
        if status != 0:
            problems.append("%s exited %d" % (" ".join(cmd), status))
        check_metrics(metrics, bench, traced, problems)
        if traced:
            check_trace(trace, bench, problems)
    for p in problems:
        print("FAIL:", p)
    print("perf smoke: %s" % ("ok" if not problems else "%d problems" %
                              len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
