"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced kerrcool function by a wrapper at
every module attribute that holds it: the defining module, modules that
imported it by name (`cavity.lower_branch_array`) and the package
re-exports (`kerrcool.steady_at`).  A wrapper records one span per call:
start, end and the index of the enclosing traced span.  Spans stay in
memory; `summary` folds them into per-function call counts and self
times, and `write` dumps them once at the end of the run.

A function's self time is its span's duration minus the durations of the
traced spans directly inside it.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

#: Traced functions, by layer, as "module.function".
LAYERS = {
    "steady": ("steady.photon_branches", "steady.lower_branch_array", "steady.steady_at"),
    "cavity": ("cavity.cavity_poles", "cavity.scattering_rates",
               "cavity.photon_spectrum", "cavity.skewness"),
    "cooling": ("cooling.occupation", "cooling.integrate_mech_spectrum"),
    "squeezing": ("squeezing.squeezed_backaction", "squeezing.matched_squeeze",
                  "squeezing.squeezed_force_spectrum"),
    "oracle": ("oracle.build_matrix", "oracle.numeric_occupation",
               "oracle.numeric_spectrum", "oracle.transfer"),
    "sweeps": ("sweeps.optimal_detuning", "sweeps.max_damping_point",
               "sweeps.optimize_operating_point", "sweeps.golden_min",
               "sweeps.ground_state_onset_omega", "sweeps.detuning_profile",
               "sweeps.run_sweep"),
    "io": ("io.rows_to_csv", "io.to_json", "io.emit"),
    "cli": ("cli.run_cli",),
}
TRACED = tuple(name for names in LAYERS.values() for name in names)

#: Extra counts besides calls and self time, one per listed function.
#: golden_min's probes are counted by wrapping the function passed in.
EXTRA_COUNTS = ("steady.lower_branch_array.points", "oracle.transfer.freqs",
                "sweeps.golden_min.probes", "io.emit.bytes")


def metric_names() -> list:
    """Per-layer metric names, in report order."""
    names = []
    for fn in TRACED:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    return names + list(EXTRA_COUNTS)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: traced function -> (extra count, its increment per call)
COUNTERS = {
    "steady.lower_branch_array": ("steady.lower_branch_array.points",
                                  lambda a, kw: int(np.size(_arg(a, kw, 1, "deltas")))),
    "oracle.transfer": ("oracle.transfer.freqs",
                        lambda a, kw: int(np.size(_arg(a, kw, 1, "omega")))),
    "io.emit": ("io.emit.bytes", lambda a, kw: len(_arg(a, kw, 0, "text").encode())),
}


class Tracer:
    """Span recorder for one workload process."""

    def __init__(self):
        self.names = list(TRACED)
        self.fid = {name: i for i, name in enumerate(self.names)}
        self.span_fn = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self.absent = []
        self._stack = [-1]

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function of `package` (the imported kerrcool)
        at every attribute of a loaded kerrcool module that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for name in self.names:
            mod_name, fn_name = name.split(".")
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            original = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        fid = self.fid[name]
        starts, ends, parents, fns = (self.span_start, self.span_end,
                                      self.span_parent, self.span_fn)
        stack = self._stack
        counts = self.counts
        counter = COUNTERS.get(name)
        probes = name == "sweeps.golden_min"
        clock = time.perf_counter

        def counted(f):
            @functools.wraps(f)
            def probe(*a, **kw):
                counts["sweeps.golden_min.probes"] += 1
                return f(*a, **kw)
            return probe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            if probes:
                args = (counted(args[0]),) + args[1:]
            idx = len(starts)
            fns.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return wrapper

    # -- results --------------------------------------------------------

    def mark(self) -> tuple:
        """Position in the span and count records, to fold one round."""
        return len(self.span_start), dict(self.counts)

    def summary(self, since: tuple) -> dict:
        """Per-layer metrics of the spans and counts recorded after `since`."""
        first, counts0 = since
        n = len(self.names)
        fn = np.frombuffer(self.span_fn, dtype=np.uint16)[first:].astype(np.intp)
        dur = (np.frombuffer(self.span_end, dtype=float)[first:]
               - np.frombuffer(self.span_start, dtype=float)[first:])
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[first:].astype(np.intp)
        child_time = np.zeros(len(dur))
        inside = parent >= first
        np.add.at(child_time, parent[inside] - first, dur[inside])
        calls = np.bincount(fn, minlength=n)
        self_s = np.bincount(fn, weights=dur - child_time, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        for key, value in self.counts.items():
            out[key] = value - counts0[key]
        return out

    def write(self, path) -> None:
        """All spans, columnar: function index, start, end, parent index."""
        doc = {
            "functions": self.names,
            "absent": self.absent,
            "counts": self.counts,
            "spans": {
                "fn": self.span_fn.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
