"""Workload process: imports kerrcool from the checkout, runs whole rounds
of one workload until its measuring time is used up, and writes timings
and the captured outputs of the last round to a JSON file.

    python3 kerrbench/child.py --probe
    python3 kerrbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out FILE --workdir DIR [--trace-file FILE]

The first line either form prints is the monotonic clock reading taken
right after `kerrcool` and `kerrcool.cli` are imported; the parent turns
it into set-up time.  --probe stops there.

With --trace 1 the first half of the time runs untraced rounds and the
second half traced ones, so the tracing overhead is measured in the same
process.  With --trace 0 no wrapper is ever installed.
"""
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import kerrcool  # noqa: E402
import kerrcool.cli  # noqa: E402

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

sys.path.insert(0, _HERE)
import plan  # noqa: E402
from tracer import Tracer  # noqa: E402


def _integrate(dhz: str, frac: str) -> str:
    """The library route of the oracle round: occupation by quadrature of
    the closed-form mechanical spectrum."""
    p = kerrcool.default_params()
    n_in = float(frac) * kerrcool.bifurcation(p).n_in_bi
    ss = kerrcool.steady_at(p, plan.TAU * float(dhz), n_in)
    value, err = kerrcool.integrate_mech_spectrum(ss, p)
    return json.dumps({"value": value, "err": err})


def write_files(rnd: plan.Round, workdir: str) -> None:
    """Spec and config files the round's calls read."""
    for name, text in rnd.files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)


def run_call(call: plan.Call):
    """(exit code, stdout) of one call; (code, stderr) when it fails.  An
    exception escaping the program counts as a failed call, exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if call.argv[0] == "integrate_mech_spectrum":
                print(_integrate(*call.argv[1:]))
                code = 0
            else:
                code = kerrcool.cli.run_cli(list(call.argv))
    except Exception as exc:  # the round goes on; the check counts the failure
        return 1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue() if code == 0 else err.getvalue()


def run_round(rnd: plan.Round) -> dict:
    """Run every call of a round; returns name -> (exit code, text)."""
    return {call.name: run_call(call) for call in rnd.calls}


def run_rounds(rnd, seconds, tracer=None):
    """Whole rounds that fit in `seconds` (at least one).  Returns
    per-round wall and CPU times, per-round layer metrics when traced, and
    the outputs of the last round."""
    walls, cpus, layers = [], [], []
    outputs = None
    begin = time.perf_counter()
    # start a round only when a typical round still ends inside the time
    while not walls or (time.perf_counter() - begin + statistics.median(walls)
                        <= seconds):
        mark = tracer.mark() if tracer else None
        c0, t0 = time.process_time(), time.perf_counter()
        result = run_round(rnd)
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if tracer:
            layers.append(tracer.summary(mark))
        if outputs is not None and result != outputs:
            raise SystemExit("outputs differ between rounds of the same inputs")
        outputs = result
    return walls, cpus, layers, outputs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    if sys.argv[1:] == ["--probe"]:
        print(repr(IMPORTED_AT), flush=True)
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    print(repr(IMPORTED_AT), flush=True)

    rnd = plan.make_round(args.workload, args.seed, args.workdir)
    write_files(rnd, args.workdir)

    result = {}
    if args.trace:
        walls, cpus, _, outputs = run_rounds(rnd, args.seconds / 2)
        tracer = Tracer()
        tracer.install(kerrcool)
        t_walls, _, layers, t_outputs = run_rounds(rnd, args.seconds / 2, tracer)
        if t_outputs != outputs:
            raise SystemExit("traced outputs differ from untraced outputs")
        result["traced_wall_s"] = t_walls
        result["layers"] = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        result["absent"] = tracer.absent
        if args.trace_file:
            tracer.write(args.trace_file)
    else:
        walls, cpus, _, outputs = run_rounds(rnd, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wall_s"] = walls
    result["cpu_s"] = cpus
    result["outputs"] = outputs
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
