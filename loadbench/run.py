#!/usr/bin/env python3
"""Builds and runs the sargus end-to-end load benchmark.

Run from the root of a source checkout:

    python3 loadbench/run.py --workload feed-read --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and sargus_load in
.bench_build (a Release build of the sources in the checkout, without the
unit tests or the Google Benchmark suite); later runs rebuild only what
changed. Bundles, WALs and trace files go to .bench_out. The last line of
standard output is the run's JSON result; it is checked against the
metric names in BENCHMARK.json before the script exits.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_out")
SOURCE_MARKERS = ("CMakeLists.txt", os.path.join("engine", "access_engine.h"))


def fail(message, code=2):
    print(f"loadbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for marker in SOURCE_MARKERS:
        if not os.path.isfile(os.path.join(ROOT, marker)):
            fail(f"no sargus sources here ({marker} is missing)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "loadbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    make = ["cmake", "--build", BUILD_DIR, "--target", "sargus_load", "-j",
            jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "sargus_load")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last line of output is not JSON", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the contract", 1)
    expected = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or a unit differs", 1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["feed-read", "social-churn", "sharded-feed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--single-engine", action="store_true",
                        help="sharded-feed only: serve its inputs from one "
                        "engine (a reference figure; no bound covers it)")
    args = parser.parse_args()

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    if args.single_engine:
        command.append("--single-engine")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}", 1)
    check_result(lines[-1], args.trace == 1)


if __name__ == "__main__":
    main()
