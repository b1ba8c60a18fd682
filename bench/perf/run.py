#!/usr/bin/env python3
"""Builds bench_perf from this checkout's sources and runs one workload.

usage (from the repository root):
  python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
The human-readable bench_perf lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics, where
metrics holds the metrics BENCHMARK.json lists for that mode. The build and
every output stay under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SOURCE = os.path.join(ROOT, "bench", "perf")
BUILD = os.path.join(ROOT, ".bench_build", "perf")
BINARY = os.path.join(BUILD, "bench_perf")
# Timing children per run: each pays one warm-up run, and each brings a
# fresh heap layout into the median.
REPS = 2


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("bench_perf build failed: %s" % error)

    out_json = os.path.join(BUILD, "result-%s-%d-%d.json"
                            % (args.workload, args.seed, args.trace))
    if os.path.exists(out_json):
        os.remove(out_json)
    command = [BINARY, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
               "--reps=%d" % REPS,
               "--phase=" + ("layers" if args.trace else "e2e"),
               "--json=" + out_json]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    # 0: all checks passed; 1: a check failed (the record is still written).
    if proc.returncode not in (0, 1) or not os.path.exists(out_json):
        sys.exit("bench_perf exited with %d" % proc.returncode)

    with open(out_json) as f:
        workload = json.load(f)["workloads"][0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in listed:
        measured = workload["metrics"].get(spec["name"])
        if measured is None or measured["value"] is None:
            sys.exit("bench_perf did not report %s" % spec["name"])
        if measured["unit"] != spec["unit"]:
            sys.exit("%s: unit %s, BENCHMARK.json says %s"
                     % (spec["name"], measured["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": spec["unit"]}
    correct = proc.returncode == 0 and workload["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": workload["attempted"],
                      "failed": workload["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
