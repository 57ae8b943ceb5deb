#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares two of them.

    # ten untraced runs per workload, seeds 1..10, BENCHMARK.json's run_seconds
    python3 perfbench/compare.py collect --out .bench_build/base.jsonl
    # the same on a changed tree, then the verdict per workload and metric
    python3 perfbench/compare.py collect --out .bench_build/change.jsonl
    python3 perfbench/compare.py diff .bench_build/base.jsonl \
        .bench_build/change.jsonl
    # one set alone: medians, quartiles and spreads against the bounds
    python3 perfbench/compare.py report .bench_build/base.jsonl

A run set is a JSON-lines file, one run per line:
{"workload", "seed", "exit", "result"} where result is the benchmark's last
output line, or null when the run printed none. A run failed when it exited
nonzero, printed no result, or reported "correct": false or failed > 0.
Statistics follow BENCHMARK.json: the spread of a metric is the distance
between its first and third quartile (statistics.quantiles(values, n=4))
over its median, taken over the runs that did not fail. In a diff a metric
is

  better / worse   when the change's median moved past the bound;
  unchanged        when it moved less than the bound;
  unresolved       when either set's spread is wider than the bound, unless
                   every run of one side beats every run of the other.

A workload whose change set has failed runs, or fewer good runs than the
base set, is reported as failed. report and diff exit nonzero on a failed
workload; report also on a spread wider than its bound, diff also on a
worse metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    spec = load_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for i in range(args.runs):
            for name in names:
                seed = args.first_seed + i
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = done.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1]) if lines else None
                except json.JSONDecodeError:
                    result = None
                run = {"workload": name, "seed": seed,
                       "exit": done.returncode, "result": result}
                out.write(json.dumps(run) + "\n")
                out.flush()
                print(f"{name} seed {seed}: exit {done.returncode}, "
                      f"{'failed' if failed(run) else 'ok'}", file=sys.stderr)
                if failed(run):
                    sys.stderr.write(done.stderr[-2000:])


def failed(run):
    result = run["result"]
    return (run["exit"] != 0 or not result or not result["correct"]
            or result["failed"] > 0)


def load_set(path):
    """({(workload, metric): [values]} over the good runs,
    {workload: [good runs, failed runs]})."""
    values, runs = {}, {}
    with open(path) as f:
        for line in f:
            run = json.loads(line)
            count = runs.setdefault(run["workload"], [0, 0])
            if failed(run):
                count[1] += 1
                continue
            count[0] += 1
            for name, m in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    m["value"])
    return values, runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else float("inf")
    return q1, q2, q3, spread


def metric_specs():
    return {m["name"]: m for m in load_spec()["end_to_end"]}


def report(args):
    specs = metric_specs()
    data, runs = load_set(args.set)
    bad = False
    for workload, (good, fails) in sorted(runs.items()):
        if fails:
            bad = True
            print(f"{workload}: {fails} of {good + fails} runs FAILED")
    print(f"{'workload':12} {'metric':20} {'n':>3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for (workload, name), values in sorted(data.items()):
        bound = specs[name]["bound"]
        if len(values) < 2:
            continue
        q1, q2, q3, spread = summary(values)
        flag = "" if spread <= bound else "  WIDE"
        bad |= bool(flag)
        print(f"{workload:12} {name:20} {len(values):3} {q1:12.5g} "
              f"{q2:12.5g} {q3:12.5g} {spread:7.3f} {bound:6.2f}{flag}")
    return 1 if bad else 0


def verdict(base, change, spec):
    bound, higher = spec["bound"], spec["better"] == "higher"
    _, mb, _, sb = summary(base)
    _, mc, _, sc = summary(change)
    rel = (mc - mb) / abs(mb) if mb else 0.0
    gain = rel if higher else -rel
    if max(sb, sc) > bound:
        all_above, all_below = min(change) > max(base), max(change) < min(base)
        if not (all_above or all_below):
            return rel, "unresolved"
        return rel, ("better" if all_above == higher else "worse") + \
            " (every run)"
    if gain < -bound:
        return rel, "worse"
    if gain > bound:
        return rel, "better"
    return rel, "unchanged"


def diff(args):
    specs = metric_specs()
    base, base_runs = load_set(args.base)
    change, change_runs = load_set(args.change)
    bad = False
    for workload, (good, fails) in sorted(base_runs.items()):
        got, got_fails = change_runs.get(workload, [0, 0])
        if got_fails or got < good:
            bad = True
            print(f"{workload}: FAILED in the change: {got} good and "
                  f"{got_fails} failed runs, base has {good} good and "
                  f"{fails} failed")
    print(f"{'workload':12} {'metric':20} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'delta':>8}  verdict")
    for key in sorted(base):
        workload, name = key
        if len(base[key]) < 2:
            continue
        if len(change.get(key, [])) < 2:
            bad = True
            print(f"{workload:12} {name:20} missing from the change  worse")
            continue
        rel, v = verdict(base[key], change[key], specs[name])
        bad |= v.startswith("worse")
        b, c = summary(base[key]), summary(change[key])
        print(f"{workload:12} {name:20} "
              f"{b[0]:10.4g}/{b[1]:10.4g}/{b[2]:10.4g} "
              f"{c[0]:10.4g}/{c[1]:10.4g}/{c[2]:10.4g} {rel:+8.1%}  {v}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description="collect and compare benchmark run sets")
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark and append results")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads", nargs="*")
    r = sub.add_parser("report", help="medians, quartiles, spreads of a set")
    r.add_argument("set")
    d = sub.add_parser("diff", help="verdict per workload and metric")
    d.add_argument("base")
    d.add_argument("change")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return report(args) if args.command == "report" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
