"""kerrcool benchmark: one workload per call, each in fresh processes.

    python3 kerrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
The run starts a few import-only processes to time set-up, then one
workload process (child.py) that repeats whole rounds of CLI calls for
the given seconds.  The outputs of the last round are checked here
against the independent reference (checks.py, reference.py).  The last
line printed is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics; no wrapper is installed.
--trace 1 reports the per-layer metrics of a traced run, and the tracing
overhead: median traced round wall time minus untraced, same process.
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
sys.path.insert(0, HERE)

import plan  # noqa: E402
import tracer  # noqa: E402

#: Import-only processes per run; with the workload process itself they
#: give the set-up samples whose median is setup_s.
SETUP_PROBES = 4
#: One BLAS/OpenMP thread: the figures are single-core figures.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list, timeout: float):
    """Run child.py; returns (set-up seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")] + args,
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return float(proc.stdout.splitlines()[0]) - t0, proc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kerrcool", "__init__.py")):
        raise SystemExit(f"no kerrcool package under {ROOT}/src")
    workdir = os.path.join("kerrbench", "out", f"{args.workload}-{args.seed}")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    out_file = os.path.join(ROOT, workdir, "result.json")

    setup = [spawn(["--probe"], 60)[0] for _ in range(SETUP_PROBES)]
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", str(args.trace),
                  "--out", out_file, "--workdir", workdir]
    if args.trace:
        child_args += ["--trace-file", os.path.join(ROOT, workdir, "trace.json")]
    # a run lasts its seconds plus at most one round past them
    t_setup, _ = spawn(child_args, 2 * args.seconds + 120)
    setup.append(t_setup)
    with open(out_file) as fh:
        result = json.load(fh)

    import checks  # reference and mpmath load after the timed processes

    outputs = {name: tuple(v) for name, v in result["outputs"].items()}
    rnd = plan.make_round(args.workload, args.seed, workdir)
    verdict = checks.CHECKS[args.workload](outputs, rnd, args.seed)
    rounds = len(result["wall_s"]) + len(result.get("traced_wall_s", ()))
    for text in verdict.problems[:20]:
        print(f"CHECK FAILED: {text}")
    if len(verdict.problems) > 20:
        print(f"CHECK FAILED: ... {len(verdict.problems) - 20} more")

    if args.trace:
        untraced = statistics.median(result["wall_s"])
        traced = statistics.median(result["traced_wall_s"])
        for name in result["absent"]:
            print(f"ABSENT: {name} is not in this kerrcool; its metrics read 0")
        units = {name: ("s" if name.endswith("_s") else "count")
                 for name in tracer.metric_names()}
        metrics = {name: {"value": result["layers"][name], "unit": units[name]}
                   for name in tracer.metric_names()}
        metrics["trace_overhead_s"] = {"value": traced - untraced, "unit": "s"}
        print(f"traced rounds {len(result['traced_wall_s'])}, "
              f"untraced rounds {len(result['wall_s'])}, "
              f"overhead {traced - untraced:.4f} s on {untraced:.4f} s")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(result["wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(result["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"rounds {rounds}, setup samples {[round(x, 4) for x in setup]}")
    # every round does the same operations: scale one round's verdict
    print(json.dumps({"correct": verdict.correct, "attempted": verdict.attempted * rounds,
                      "failed": verdict.failed * rounds, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
