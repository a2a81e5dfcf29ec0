"""Run-to-run spread of the benchmark on one commit.

    python3 kerrbench/spread.py [--runs 10] [--workloads a,b] [--seconds S]

Runs two sets of `--runs` untraced runs of each workload, each run with
its own seed counted from 1, and prints for every end-to-end metric each
set's median and quartiles, the quartile spread as a share of the median
next to the metric's bound in BENCHMARK.json, and how far the second
set's median moved from the first.  It also prints the share of failed
operations per set, which must be identical.  Results go to
kerrbench/out/spread.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    seed = 1
    for workload in args.workloads.split(","):
        sets = []
        for k in range(2):
            runs = []
            for _ in range(args.runs):
                t0 = time.perf_counter()
                res = run_once(workload, seed, args.seconds)
                res["elapsed_s"] = time.perf_counter() - t0
                res["seed"] = seed
                runs.append(res)
                seed += 1
                print(f"{workload} set {k + 1} seed {res['seed']}: "
                      f"{res['elapsed_s']:.1f} s, correct {res['correct']}, "
                      f"failed {res['failed']}/{res['attempted']}", flush=True)
            sets.append(runs)
        report[workload] = sets
        print(f"\n{workload}")
        for k, runs in enumerate(sets):
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"  set {k + 1}: failed share {shares}, "
                  f"all correct {all(r['correct'] for r in runs)}, "
                  f"longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        for name, bound in bounds.items():
            line = f"  {name:12s} bound {bound:.2f}"
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                medians.append(q2)
                line += f" | median {q2:.5g} [{q1:.5g}, {q3:.5g}] spread {(q3 - q1) / q2:.4f}"
            line += f" | shift {medians[1] / medians[0] - 1.0:+.4f}"
            print(line)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
