#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perf/ (Release, into perf/build) when needed, runs smac_perf for the
workload with the given seed and timed-region length, and prints as the
last line of standard output

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where metrics holds every end_to_end metric of BENCHMARK.json (--trace 0)
or every per_layer metric (--trace 1, which adds the traced pass). Build
and harness output go to standard error. Exits non-zero without a result
when the build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF = os.path.join(ROOT, "perf")
BUILD = os.path.join(PERF, "build")
BINARY = os.path.join(BUILD, "smac_perf")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PERF, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "smac_perf",
                  "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run(cmd):
    """Runs cmd in its own process group; returns its exit status. The
    group is killed, and waited for, when the run times out or this script
    is terminated."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)

    def stop(message):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group has already exited
            pass
        proc.wait()
        fail(message)

    signal.signal(signal.SIGTERM, lambda *_: stop("terminated"))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop("smac_perf timed out after %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        stop("interrupted")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--metrics", stem + ".json"]
    if args.trace:
        cmd += ["--trace", stem + ".trace.json"]
    status = run(cmd)

    try:
        with open(stem + ".json") as f:
            entry = json.load(f)["workloads"][args.workload]
    except (OSError, ValueError, KeyError) as e:
        fail("no metrics from smac_perf (exit %d): %s" % (status, e))
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in bench[key]:
        got = entry.get(key, {}).get(spec["name"])
        if got is None or got["unit"] != spec["unit"] or got["value"] is None:
            fail("metric %s missing or malformed (exit %d)" %
                 (spec["name"], status))
        metrics[spec["name"]] = got
    print(json.dumps({"correct": bool(entry["correct"]) and status == 0,
                      "attempted": entry["attempted"],
                      "failed": entry["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
