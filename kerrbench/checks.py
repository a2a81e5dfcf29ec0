"""Output checks of each workload against the independent reference.

Each `check_<workload>(outputs, inputs, seed)` takes the captured outputs
of one round (name -> (exit code, text)) and returns a `Verdict`:
operations attempted, operations failed, and the problems found in the
operations that did not fail.  An operation fails when the program
cannot deliver it: a nonzero exit, a CSV row whose field count differs
from the header, or an error the physics does not call for.  Rows that
carry an error for a physical reason the reference confirms (net
anti-damping, no one-phonon crossing) count as succeeded.

Sampling is seeded: expensive 50-digit comparisons run on a seeded subset
of rows, the cheap identities on every row.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

import plan
import reference as ref

TAU = ref.TAU
#: n_c to the 50-digit root: the library's 1e-10 residual target.
ROOT_RTOL = 1e-10
#: Occupation at a given point, rate form against the reference.
OCC_RTOL = 1e-7
#: Identity c_eff gamma_m = Gamma_AS - Gamma_S, relative to Gamma_AS + Gamma_S.
RATE_RTOL = 1e-9
#: Optimizer slack: golden refinement stops at 1e-4 relative.
OPT_RTOL = 1e-4
#: Reference minimum against a reported minimum.
MIN_RTOL = 1e-6
#: Oracle quadrature and closed-form quadrature against the rate form.
QUAD_RTOL = 0.02
#: Pointwise closed-form spectrum against the oracle (acceptance bound).
SPECTRUM_RTOL = 1e-8
#: Relative size of the cubic discriminant below which a point counts as
#: at the cusp, where the root count is not decided by its sign.
CUSP_DISC = 1e-6
#: Paper values of table-values and their tolerance.
TABLE = {"c_eff_nl": 264.0, "c_eff_lin": 22.0, "n_m_nl": 12.66, "n_m_lin": 123.33}
TABLE_RTOL = 0.03


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.problems.append(text)

    @property
    def correct(self) -> bool:
        return not self.problems


def rel(a: float, b: float) -> float:
    """Relative difference; infinite when either side is missing (nan)."""
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / abs(b) if b != 0 else abs(a)


def read_csv(text: str):
    """(header, rows); each row a list of fields, malformed ones included."""
    records = list(csv.reader(io.StringIO(text)))
    return records[0], records[1:]


def as_dict(header, fields) -> dict | None:
    """Row as a dict, or None when its field count is wrong."""
    if len(fields) != len(header):
        return None
    return dict(zip(header, fields))


def num(row: dict, key: str) -> float:
    value = row.get(key, "")
    return float(value) if value not in ("", None) else math.nan


def sample(rng: random.Random, items, k: int) -> list:
    items = list(items)
    return items if len(items) <= k else rng.sample(items, k)


# ----------------------------------------------------------------------
# profile

def profile_deltas(s: ref.System, points: int) -> np.ndarray:
    """The detuning axis of fig2 and fig4: -12 to -0.01 omega_m."""
    return TAU * np.linspace(-12.0 * s.omega_m / TAU, -0.01 * s.omega_m / TAU, points)


def _check_profile_rows(v: Verdict, name: str, text: str, points: int,
                        rng: random.Random, n_sample: int, linear: bool):
    s = ref.default_system()
    n_in = ref.equal_drive(s)
    deltas = profile_deltas(s, points)
    header, rows = read_csv(text)
    if len(rows) != points:
        v.problem(f"{name}: {len(rows)} rows, expected {points}")
    good = []
    for i, fields in enumerate(rows):
        v.attempted += 1
        row = as_dict(header, fields)
        if row is None:
            v.failed += 1
            continue
        d = deltas[i] if i < len(deltas) else math.nan
        if rel(num(row, "detuning_rad_s"), d) > 1e-11:
            v.problem(f"{name} row {i}: detuning {row['detuning_rad_s']} is not {d!r}")
            continue
        if row["error"]:
            # only anti-damping is a physical error here; confirm it
            if ref.point(s, d, n_in).damping > 0.0:
                v.problem(f"{name} row {i}: error {row['error']!r} but the "
                          "reference damping is positive")
            if not math.isnan(num(row, "n_m")):
                v.problem(f"{name} row {i}: error row carries n_m")
        good.append((i, d, row))
        disc, scale = ref.discriminant_mp(s, d, n_in)
        if not row["n_roots"]:
            v.problem(f"{name} row {i}: no n_roots")
        elif abs(disc) > CUSP_DISC * scale:
            expect = 3 if disc > 0 else 1
            if int(row["n_roots"]) != expect:
                v.problem(f"{name} row {i}: n_roots {row['n_roots']}, "
                          f"discriminant sign says {expect}")
        gs, gas = num(row, "gamma_stokes_rad_s"), num(row, "gamma_antistokes_rad_s")
        c_eff = num(row, "c_eff")
        if not all(map(math.isfinite, (gs, gas, c_eff))):
            v.problem(f"{name} row {i}: c_eff or a scattering rate is missing")
        elif abs(c_eff * s.gamma_m - (gas - gs)) > RATE_RTOL * (gas + gs):
            v.problem(f"{name} row {i}: c_eff*gamma_m != Gamma_AS - Gamma_S")
    for i, d, row in sample(rng, good, n_sample):
        pt = ref.point(s, d, n_in)
        if rel(num(row, "n_c_lower"), pt.n_c) > ROOT_RTOL:
            v.problem(f"{name} row {i}: n_c_lower {row['n_c_lower']} vs reference {pt.n_c!r}")
        if not row["error"] and rel(num(row, "n_m"), pt.n_m) > OCC_RTOL:
            v.problem(f"{name} row {i}: n_m {row['n_m']} vs reference {pt.n_m!r}")
        if linear:
            lin = ref.point(s.linear(), d, n_in)
            both_anti_damped = math.isnan(lin.n_m) and math.isnan(num(row, "n_m_linear"))
            if not both_anti_damped and rel(num(row, "n_m_linear"), lin.n_m) > OCC_RTOL:
                v.problem(f"{name} row {i}: n_m_linear {row['n_m_linear']} vs "
                          f"reference {lin.n_m!r}")
    return good


def check_profile(outputs: dict, inputs: plan.Round, seed: int) -> Verdict:
    v = Verdict()
    rng = random.Random(seed)
    if not _outputs_ok(v, outputs, ("fig2", "fig4", "table"),
                       plan.FIG2_POINTS + plan.FIG4_POINTS + 1):
        return v
    _check_profile_rows(v, "fig2", outputs["fig2"][1], plan.FIG2_POINTS, rng, 120, True)
    good4 = _check_profile_rows(v, "fig4", outputs["fig4"][1], plan.FIG4_POINTS,
                                rng, 40, False)
    s = ref.default_system()
    skew = [(num(row, "skewness_effective"), d) for _, d, row in good4
            if not math.isnan(num(row, "skewness_effective"))]
    if not skew:
        v.problem("fig4: no skewness values")
    else:
        grid = profile_deltas(s, plan.FIG4_POINTS)
        step = abs(grid[1] - grid[0])
        peak = max(skew)[1]
        if abs(peak - ref.bifurcation(s)[0]) > 1.0001 * step:
            v.problem(f"fig4: skewness peak at {peak!r}, more than one step "
                      f"from Delta_bi {ref.bifurcation(s)[0]!r}")
    v.attempted += 1
    table = json.loads(outputs["table"][1])
    for key, target in TABLE.items():
        if rel(table[key], target) > TABLE_RTOL:
            v.problem(f"table-values: {key} {table[key]!r} not within 3% of {target}")
    return v


# ----------------------------------------------------------------------
# optimize

def _local_min_2d(s: ref.System, delta: float, n_in: float, n_in_max: float,
                  rng: random.Random, xi: float = 0.0, count: int = 4000) -> float:
    """Least reference occupation over a seeded cloud of points around
    (delta, n_in): detuning within 0.05 kappa, drive within a factor 2,
    never above n_in_max; plus the two axis lines through the point."""
    dd = np.array([rng.uniform(-0.05, 0.05) for _ in range(count)]) * s.kappa
    ff = np.exp([rng.uniform(-math.log(2.0), math.log(2.0)) for _ in range(count)])
    line = np.linspace(-1.0, 1.0, 401)
    d = np.concatenate([delta + dd, delta + 0.05 * s.kappa * line, np.full(401, delta)])
    f = np.concatenate([n_in * ff, np.full(401, n_in), n_in * 2.0 ** line])
    f = np.minimum(f, n_in_max)
    lo, hi = ref.detuning_window(s)
    d = np.clip(d, lo, hi)
    return float(np.min(ref.occupation_array(s, d, f, xi)))


def _local_min_1d(s: ref.System, delta: float, n_in: float, rng: random.Random,
                  xi: float = 0.0, count: int = 2000) -> float:
    lo, hi = ref.detuning_window(s)
    dd = np.array([rng.uniform(-0.05, 0.05) for _ in range(count)]) * s.kappa
    d = np.clip(np.concatenate([delta + dd, delta + 0.05 * s.kappa * np.linspace(-1, 1, 401)]),
                lo, hi)
    return float(np.min(ref.occupation_array(s, d, n_in, xi)))


def _check_optimum(v: Verdict, where: str, s: ref.System, delta: float, n_in: float,
                   n_m: float, xi: float, local_min: float):
    expect = ref.occupation(s, delta, n_in, xi)
    if rel(n_m, expect) > MIN_RTOL:
        v.problem(f"{where}: n_m {n_m!r} vs reference {expect!r} at the reported point")
    if local_min < n_m * (1.0 - OPT_RTOL):
        v.problem(f"{where}: local reference scan reaches {local_min!r} below "
                  f"reported {n_m!r}")


def check_optimize(outputs: dict, inputs: plan.Round, seed: int) -> Verdict:
    v = Verdict()
    rng = random.Random(seed)
    if not _outputs_ok(v, outputs, ("fig6", "fig8", "fig9"),
                       plan.FIG6_POINTS + plan.FIG8_POINTS + plan.FIG9_POINTS):
        return v
    base = ref.default_system()
    cap = ref.CAP

    header, rows = _rows(v, outputs, "fig6", plan.FIG6_POINTS)
    g_axis = np.linspace(1.7e3, 35e3, plan.FIG6_POINTS)
    for i, fields in enumerate(rows):
        v.attempted += 1
        row = as_dict(header, fields)
        if row is None or row["error"]:
            v.failed += 1
            continue
        where = f"fig6 row {i}"
        if rel(num(row, "g0_hz"), g_axis[i]) > 1e-11:
            v.problem(f"{where}: g0 {row['g0_hz']} is not {g_axis[i]!r}")
        s = base.with_g0(TAU * g_axis[i])
        n_in_bi = ref.bifurcation(s)[1]
        if num(row, "n_in_opt_fraction") > cap * (1 + 1e-11) \
                or num(row, "n_in_opt_per_s") > cap * n_in_bi * (1 + 1e-11):
            v.problem(f"{where}: drive {row['n_in_opt_per_s']} above the cap")
        d_opt, n_opt, n_m = (num(row, "delta_opt_rad_s"), num(row, "n_in_opt_per_s"),
                             num(row, "n_m_opt"))
        _check_optimum(v, where, s, d_opt, n_opt, n_m, 0.0,
                       _local_min_2d(s, d_opt, n_opt, cap * n_in_bi, rng))
        n_in = num(row, "n_in_crit_per_s")
        expect = ref.occupation(s, num(row, "delta_maxdamp_rad_s"), n_in)
        if rel(num(row, "n_m_maxdamp"), expect) > MIN_RTOL:
            v.problem(f"{where}: n_m_maxdamp {row['n_m_maxdamp']} vs reference {expect!r}")
        if n_m > num(row, "n_m_maxdamp") * (1 + 1e-12):
            v.problem(f"{where}: n_m_opt {n_m!r} above n_m_maxdamp {row['n_m_maxdamp']}")

    header, rows = _rows(v, outputs, "fig8", plan.FIG8_POINTS)
    w_axis = np.geomspace(0.02, 1.0, plan.FIG8_POINTS)
    p15 = base.with_g0(TAU * 15e3)
    for i, fields in enumerate(rows):
        v.attempted += 1
        row = as_dict(header, fields)
        if row is None or row["error"] or row["linear_error"]:
            v.failed += 1
            continue
        where = f"fig8 row {i}"
        sv = p15.sideband(w_axis[i])
        if rel(num(row, "n_th"), sv.n_th) > 1e-10:
            v.problem(f"{where}: n_th {row['n_th']} vs reference {sv.n_th!r}")
        n_in = num(row, "n_in_per_s")
        if rel(n_in, ref.equal_drive(sv)) > 1e-11:
            v.problem(f"{where}: drive {row['n_in_per_s']} is not the capped drive")
        d = num(row, "delta_rad_s")
        _check_optimum(v, where, sv, d, n_in, num(row, "n_m"), 0.0,
                       _local_min_1d(sv, d, n_in, rng))
        lin = sv.linear()
        lin_bi = ref.bifurcation(lin)[1]
        d, n_in = num(row, "linear_delta_rad_s"), num(row, "linear_n_in_per_s")
        if n_in > cap * lin_bi * (1 + 1e-11):
            v.problem(f"{where}: linear drive {n_in!r} above its cap")
        _check_optimum(v, f"{where} (linear)", lin, d, n_in, num(row, "linear_n_m"), 0.0,
                       _local_min_2d(lin, d, n_in, cap * lin_bi, rng))

    header, rows = _rows(v, outputs, "fig9", plan.FIG9_POINTS)
    w_axis = np.geomspace(0.02, 2.0, plan.FIG9_POINTS)
    xi = plan.FIG9_XI
    for i, fields in enumerate(rows):
        v.attempted += 1
        row = as_dict(header, fields)
        if row is None or row["error"] or row["linear_error"]:
            v.failed += 1
            continue
        sv = p15.sideband(w_axis[i])
        floor = ref.backaction_floor(w_axis[i])
        for prefix, target in (("", sv), ("linear_", sv.linear())):
            where = f"fig9 row {i}{' (linear)' if prefix else ''}"
            d, n_in = num(row, prefix + "delta_rad_s"), num(row, prefix + "n_in_per_s")
            if rel(n_in, ref.equal_drive(sv)) > 1e-11:
                v.problem(f"{where}: drive {n_in!r} is not the capped drive")
            _check_optimum(v, where, target, d, n_in, num(row, prefix + "n_m"), xi,
                           _local_min_1d(target, d, n_in, rng, xi))
            if rel(num(row, prefix + "n_ba_min"), floor) > 1e-10 or \
                    rel(num(row, prefix + "n_ba_min_squeezed"), (1 - xi) * floor) > 1e-10:
                v.problem(f"{where}: backaction floor columns disagree with {floor!r}")
            wp, r = ref.matched_squeeze(sv.omega_m, sv.kappa,
                                        num(row, prefix + "delta_eff_rad_s"), xi)
            if rel(num(row, prefix + "wp"), wp) > 1e-9 or rel(num(row, prefix + "r"), r) > 1e-9:
                v.problem(f"{where}: squeezing (wp, r) disagrees with ({wp!r}, {r!r})")
    return v


# ----------------------------------------------------------------------
# map

def check_map(outputs: dict, inputs: plan.Round, seed: int) -> Verdict:
    v = Verdict()
    rng = random.Random(seed)
    g_axis = plan.axis_grid(plan.MAP_G0_HZ)
    w_axis = plan.axis_grid(plan.MAP_OMEGA_FRAC)
    per_mode = len(g_axis) * (len(w_axis) + 1)
    if not _outputs_ok(v, outputs, tuple(f"map_{m}" for m in plan.MAP_MODES),
                       per_mode * len(plan.MAP_MODES)):
        return v
    base = ref.default_system()
    for mode in plan.MAP_MODES:
        header, rows = read_csv(outputs[f"map_{mode}"][1])
        if len(rows) != per_mode:
            v.problem(f"map {mode}: {len(rows)} rows, expected {per_mode}")
        cells, bounds = {}, {}
        for i, fields in enumerate(rows):
            v.attempted += 1
            row = as_dict(header, fields)
            if row is None:
                v.failed += 1
            kind, g_hz = fields[0], float(fields[1])
            gi = int(np.argmin(np.abs(g_axis - g_hz)))
            if rel(g_hz, g_axis[gi]) > 1e-11:
                v.problem(f"map {mode} row {i}: g0 {fields[1]} is off the axis")
                continue
            if kind == "map":
                if row is None:
                    continue
                if row["error"]:
                    v.failed += 1
                    continue
                frac = num(row, "omega_frac")
                n_m = num(row, "n_m")
                if (row["ground_state"] == "true") != (n_m < 1.0):
                    v.problem(f"map {mode} row {i}: ground_state {row['ground_state']} "
                              f"with n_m {row['n_m']}")
                if not n_m > ref.backaction_floor(frac):
                    v.problem(f"map {mode} row {i}: n_m {row['n_m']} below the "
                              f"backaction floor at omega_m/kappa {frac!r}")
                cells.setdefault(gi, []).append((frac, n_m, i))
            else:
                # omega_frac precedes the error field, so it reads right
                # even when an unquoted comma in the error shifts the tail
                bounds[gi] = (fields[3], i)
        for gi, (frac, i) in sorted(bounds.items()):
            line = sorted(cells.get(gi, []))
            above = [f for f, n, _ in line if n > 1.0]
            below = [f for f, n, _ in line if n < 1.0]
            if frac == "":
                if above and below:
                    v.problem(f"map {mode} row {i}: no crossing reported, but the "
                              f"cells at g0 {g_axis[gi]!r} Hz cross one phonon")
                continue
            b = float(frac)
            brackets = [(a[0], c[0]) for a, c in zip(line, line[1:])
                        if (a[1] - 1.0) * (c[1] - 1.0) < 0.0]
            if not any(lo <= b <= hi for lo, hi in brackets):
                v.problem(f"map {mode} row {i}: boundary {b!r} outside the crossing "
                          f"intervals {brackets} of its cells")
        all_cells = [(gi, f, n) for gi, line in cells.items() for f, n, _ in line]
        for gi, frac, n_m in sample(rng, all_cells, 2):
            sv = base.with_g0(TAU * g_axis[gi]).sideband(frac)
            target = sv.linear() if mode == "linear_comparison" else sv
            _, expect = ref.min_occupation(target, ref.equal_drive(sv))
            if rel(n_m, expect) > MIN_RTOL:
                v.problem(f"map {mode}: cell g0 {g_axis[gi]!r} Hz, omega_m/kappa "
                          f"{frac!r}: n_m {n_m!r} vs reference minimum {expect!r}")
    return v


# ----------------------------------------------------------------------
# oracle

def check_oracle(outputs: dict, inputs: plan.Round, seed: int) -> Verdict:
    v = Verdict()
    base = ref.default_system()
    for k, (dhz, frac) in enumerate(inputs.points):
        v.attempted += 1
        names = [f"{kind}{k}" for kind in ("cool", "nn", "bb", "ff", "quad")]
        if any(outputs.get(n, (1, ""))[0] != 0 for n in names):
            v.failed += 1
            continue
        cool = json.loads(outputs[f"cool{k}"][1])
        delta, n_in = cool["detuning_rad_s"], cool["n_in_per_s"]
        if rel(delta, TAU * dhz) > 1e-15 or rel(n_in, frac * ref.bifurcation(base)[1]) > 1e-12:
            v.problem(f"point {k}: cool ran at ({delta!r}, {n_in!r}), not at the input")
        expect = ref.occupation(base, delta, n_in)
        if rel(cool["n_rate"], expect) > OCC_RTOL:
            v.problem(f"point {k}: n_rate {cool['n_rate']!r} vs reference {expect!r}")
        if rel(cool["n_oracle"], cool["n_closed"]) > QUAD_RTOL:
            v.problem(f"point {k}: oracle occupation {cool['n_oracle']!r} vs closed "
                      f"form {cool['n_closed']!r}")
        quad = json.loads(outputs[f"quad{k}"][1])
        if rel(quad["value"], expect) > QUAD_RTOL:
            v.problem(f"point {k}: integrate_mech_spectrum {quad['value']!r} vs "
                      f"reference {expect!r}")
        for kind in ("nn", "bb", "ff"):
            header, rows = read_csv(outputs[f"{kind}{k}"][1])
            if len(rows) != plan.ORACLE_SPECTRUM_POINTS or header[1:] != [f"s_{kind}", "oracle"]:
                v.problem(f"point {k}: {kind} spectrum has {len(rows)} rows, header {header}")
                continue
            vals = np.array(rows, dtype=float)
            gap = np.abs(vals[:, 2] - vals[:, 1]) / np.abs(vals[:, 1])
            if not np.max(gap) <= SPECTRUM_RTOL:
                v.problem(f"point {k}: {kind} oracle column differs from the closed "
                          f"form by {np.max(gap):.3g} relative")
    return v


# ----------------------------------------------------------------------

def _rows(v: Verdict, outputs: dict, name: str, expected: int):
    """CSV header and rows of one output; no rows when their number is
    not the number of inputs, which is then a problem."""
    header, rows = read_csv(outputs[name][1])
    if len(rows) != expected:
        v.problem(f"{name}: {len(rows)} rows, expected {expected}")
        return header, []
    return header, rows


def _outputs_ok(v: Verdict, outputs: dict, names, ops: int) -> bool:
    """All calls exited 0; otherwise every operation of the round failed."""
    bad = [n for n in names if outputs.get(n, (1, ""))[0] != 0]
    if bad:
        v.attempted += ops
        v.failed += ops
        return False
    return True


CHECKS = {"profile": check_profile, "optimize": check_optimize,
          "map": check_map, "oracle": check_oracle}
