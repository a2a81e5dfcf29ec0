"""What each workload runs: the CLI calls of one round and the inputs the
checks need to regenerate.  Shared by the workload process and the
checker; imports nothing from kerrcool.

A round is the unit a run repeats until its measuring time is used up.
Every round of a run does the same operations, so the share of failed
operations does not depend on the run length.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

TAU = 2.0 * math.pi
WORKLOADS = ("profile", "optimize", "map", "oracle")

# profile
FIG2_POINTS = 801
FIG4_POINTS = 201
# optimize
FIG6_POINTS = 2
FIG8_POINTS = 2
FIG9_POINTS = 3
FIG9_XI = 0.9          # fixed by the fig9 target
# map: appF axis ranges, more frequencies than couplings
MAP_G0_HZ = (2e3, 5e4, 4, "log")
MAP_OMEGA_FRAC = (0.05, 0.35, 10, "linear")
MAP_MODES = ("nonlinear", "linear_comparison")
# oracle: operating points stratified over detuning x drive, jittered by seed
ORACLE_DETUNING_KAPPA = (-2.5, -1.0)
ORACLE_DRIVE_FRACTION = (0.05, 0.9999999)
ORACLE_STRATA = (4, 3)
ORACLE_SPECTRUM_POINTS = 2001
ORACLE_XI = 0.9
#: g0 of the spectrum calls (rad/s): the weak-coupling point of the
#: acceptance suite, where the closed-form cavity spectra are exact.
WEAK_G0 = 1e-6
KAPPA_HZ = 3e6

DEFAULT_CONFIG = {"f_m": 0.3e6, "gamma_m": 0.5, "kappa": KAPPA_HZ,
                  "kerr": 0.16e6, "g0": 1.7e3, "n_th": 2778.0}


@dataclass(frozen=True)
class Call:
    """One CLI call of a round.  `name` keys its captured output."""

    name: str
    argv: tuple


@dataclass(frozen=True)
class Round:
    calls: tuple
    files: dict = field(default_factory=dict)        # relative name -> text
    points: tuple = ()                                # oracle (detuning_hz, frac)


def axis_grid(axis) -> np.ndarray:
    start, stop, count, scale = axis
    if scale == "log":
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def config_text(**overrides) -> str:
    doc = dict(DEFAULT_CONFIG, **overrides)
    return "".join(f"{k} = {v!r}\n" for k, v in doc.items())


def map_spec_text(mode: str) -> str:
    def axis(a):
        return f"{a[0]!r}, {a[1]!r}, {a[2]}, {a[3]}"
    return (f"kind = ground_state_map\nmode = {mode}\n"
            f"g0_hz = {axis(MAP_G0_HZ)}\nomega_frac = {axis(MAP_OMEGA_FRAC)}\n")


def oracle_points(seed: int) -> tuple:
    """One (detuning_hz, drive_fraction) per stratum of the detuning x
    drive rectangle, placed uniformly inside it by the seed.  Stratifying
    keeps the quadrature work of a round nearly the same across seeds."""
    rng = random.Random(seed)
    (d0, d1), (f0, f1) = ORACLE_DETUNING_KAPPA, ORACLE_DRIVE_FRACTION
    nd, nf = ORACLE_STRATA
    out = []
    for i in range(nd):
        for j in range(nf):
            d = d0 + (d1 - d0) * (i + rng.random()) / nd
            f = f0 + (f1 - f0) * (j + rng.random()) / nf
            out.append((d * KAPPA_HZ, f))
    return tuple(out)


def make_round(workload: str, seed: int, workdir: str) -> Round:
    """The calls of one round.  `workdir` is where spec and config files
    live, relative to the checkout root."""
    jobs = ("--jobs", "1")
    if workload == "profile":
        return Round(calls=(
            Call("fig2", ("reproduce", "fig2", "--points", str(FIG2_POINTS)) + jobs),
            Call("fig4", ("reproduce", "fig4", "--points", str(FIG4_POINTS)) + jobs),
            Call("table", ("reproduce", "table-values", "--format", "json") + jobs),
        ))
    if workload == "optimize":
        return Round(calls=(
            Call("fig6", ("reproduce", "fig6", "--points", str(FIG6_POINTS)) + jobs),
            Call("fig8", ("reproduce", "fig8", "--points", str(FIG8_POINTS)) + jobs),
            Call("fig9", ("reproduce", "fig9", "--points", str(FIG9_POINTS)) + jobs),
        ))
    if workload == "map":
        files = {f"map_{m}.cfg": map_spec_text(m) for m in MAP_MODES}
        calls = tuple(Call(f"map_{m}", ("sweep", f"{workdir}/map_{m}.cfg") + jobs)
                      for m in MAP_MODES)
        return Round(calls=calls, files=files)
    if workload == "oracle":
        weak = f"{workdir}/weak.cfg"
        files = {"weak.cfg": config_text(g0=WEAK_G0 / TAU)}
        points = oracle_points(seed)
        calls = []
        for k, (dhz, frac) in enumerate(points):
            at = ("--detuning-hz", repr(dhz), "--n-in-frac", repr(frac))
            spec = ("spectrum", "--oracle", "--points", str(ORACLE_SPECTRUM_POINTS),
                    "--config", weak) + at + jobs
            calls += [
                Call(f"cool{k}", ("cool", "--oracle", "--format", "json") + at + jobs),
                Call(f"nn{k}", spec + ("--kind", "nn")),
                Call(f"bb{k}", spec + ("--kind", "bb")),
                Call(f"ff{k}", spec + ("--kind", "ff", "--xi", repr(ORACLE_XI))),
                # library call, not CLI: kerrcool.integrate_mech_spectrum
                Call(f"quad{k}", ("integrate_mech_spectrum", repr(dhz), repr(frac))),
            ]
        return Round(calls=tuple(calls), files=files, points=points)
    raise ValueError(f"unknown workload {workload!r}")
