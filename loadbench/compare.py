#!/usr/bin/env python3
"""Collects and compares sets of load-benchmark runs.

Collect a set (one JSON line per run, appended to the file):

    python3 loadbench/compare.py collect base.jsonl --seeds 1-10
    python3 loadbench/compare.py collect base.jsonl --workloads feed-read --seeds 3,5

Compare two sets:

    python3 loadbench/compare.py diff base.jsonl new.jsonl

For each workload and end-to-end metric, `diff` prints each side's median
and quartiles and a verdict against the metric's bound in BENCHMARK.json:

  better      the new median is better by more than the old runs' own
              spread (quartile distance), and the spread is within the
              bound or every new run beats every old run;
  worse       the new median is worse by more than the bound and by more
              than the old runs' spread, and the spread is within the
              bound or every new run is worse than every old run;
  unresolved  neither: the change is within the noise of the old runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, os.path.join(ROOT, "loadbench", "run.py"),
                   "--workload", workload, "--seed", str(seed), "--seconds",
                   str(args.seconds or spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed "
                      f"({proc.returncode})", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            result.update(workload=workload, seed=seed)
            with open(args.file, "a") as f:
                f.write(json.dumps(result) + "\n")
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}")


def read_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(old, new, better, bound):
    q1o, mo, q3o = quartiles(old)
    _, mn, _ = quartiles(new)
    if mo == 0:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    gain = sign * (mn - mo) / abs(mo)
    spread = (q3o - q1o) / abs(mo)
    beats_all = (min(new) > max(old)) if better == "higher" else \
        (max(new) < min(old))
    loses_all = (max(new) < min(old)) if better == "higher" else \
        (min(new) > max(old))
    if gain < -max(bound, spread) and (spread <= bound or loses_all):
        return "worse"
    if gain > spread and (spread <= bound or beats_all):
        return "better"
    return "unresolved"


def diff(args):
    spec = load_spec()
    old_runs, new_runs = read_set(args.old), read_set(args.new)
    print(f"{'workload':14s} {'metric':24s} {'old q1/med/q3':>36s} "
          f"{'new q1/med/q3':>36s} {'change':>8s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        old, new = old_runs.get(name, []), new_runs.get(name, [])
        if not old or not new:
            print(f"{name:14s} (missing runs: {len(old)} old, {len(new)} new)")
            continue
        for m in spec["end_to_end"]:
            ov = [r["metrics"][m["name"]]["value"] for r in old]
            nv = [r["metrics"][m["name"]]["value"] for r in new]
            qo, qn = quartiles(ov), quartiles(nv)
            change = (qn[1] - qo[1]) / qo[1] * 100 if qo[1] else 0.0
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{name:14s} {m['name']:24s} {fmt(qo):>36s} {fmt(qn):>36s} "
                  f"{change:+7.1f}%  "
                  f"{verdict(ov, nv, m['better'], m['bound'])}")
        of = sum(r["failed"] for r in old) / max(1, sum(r["attempted"] for r in old))
        nf = sum(r["failed"] for r in new) / max(1, sum(r["attempted"] for r in new))
        print(f"{name:14s} {'failed share':24s} {of:>36.6g} {nf:>36.6g}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark and append results")
    c.add_argument("file")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0)
    d = sub.add_parser("diff", help="compare two result sets")
    d.add_argument("old")
    d.add_argument("new")
    args = parser.parse_args()
    collect(args) if args.command == "collect" else diff(args)


if __name__ == "__main__":
    main()
