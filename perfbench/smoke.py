#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload (simulate too, which BENCHMARK.json leaves out) for one
second and checks that the result line is well formed, correct, and names
exactly the metrics BENCHMARK.json declares (end_to_end untraced, per_layer
traced). Then damages replay-ruby's trace (truncated mid-frame, one byte
flipped) and checks that the correctness check fires: nonzero exit,
"correct": false, failed > 0. Exits nonzero on the first broken
expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402


def run(workload, trace=0, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt-trace", corrupt]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout


def expect(ok, what, detail=""):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.stdout.write(detail[-3000:])
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    for w in WORKLOADS:
        code, result, out = run(w)
        expect(code == 0 and result and result["correct"]
               and result["failed"] == 0 and result["attempted"] >= 1,
               f"{w}: untraced run is correct", out)
        got = result["metrics"]
        expect(sorted(got) == sorted(e2e), f"{w}: metric names match "
               "end_to_end", json.dumps(sorted(got)) + "\n")
        expect(all(got[n]["unit"] == units[n] and got[n]["value"] > 0
                   for n in e2e), f"{w}: units match and values are > 0",
               json.dumps(got) + "\n")

    code, result, out = run("alloc-php", trace=1)
    expect(code == 0 and result and result["correct"],
           "traced run is correct", out)
    got = result["metrics"]
    expect(sorted(got) == sorted(layers),
           "traced metric names match per_layer",
           json.dumps(sorted(set(got) ^ set(layers))) + "\n")
    expect(all(got[n]["unit"] == units[n] for n in layers),
           "traced units match per_layer", json.dumps(got) + "\n")

    for how in ["truncate", "flip"]:
        code, result, out = run("replay-ruby", corrupt=how)
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"damaged trace ({how}) makes the correctness check fire", out)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
