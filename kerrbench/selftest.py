"""Tests of the benchmark's reference and output checks.

    python3 -m pytest -q kerrbench/selftest.py

Each check must accept a real output of the program and reject a copy
with one deliberate fault.  The real outputs come from one round of each
workload, run in this process.  The file name keeps these tests out of
the package's own test collection.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys

import mpmath
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import child  # noqa: E402
import plan  # noqa: E402
import reference as ref  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("kerrbench"))


def _round(workload, workdir):
    rnd = plan.make_round(workload, SEED, workdir)
    child.write_files(rnd, workdir)
    return rnd, child.run_round(rnd)


@pytest.fixture(scope="module")
def profile(workdir):
    return _round("profile", workdir)


@pytest.fixture(scope="module")
def optimize(workdir):
    return _round("optimize", workdir)


@pytest.fixture(scope="module")
def ground_map(workdir):
    return _round("map", workdir)


@pytest.fixture(scope="module")
def oracle(workdir):
    return _round("oracle", workdir)


def edit_csv(text: str, edit) -> str:
    """Apply edit(header, row_fields) -> row_fields to every row."""
    header, rows = checks.read_csv(text)
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for fields in rows:
        w.writerow(edit(header, list(fields)))
    return out.getvalue()


def with_output(outputs: dict, name: str, text: str) -> dict:
    copy = dict(outputs)
    copy[name] = (0, text)
    return copy


# ----------------------------------------------------------------------
# reference

def test_reference_bifurcation_identities():
    """The cusp of the cubic sits at Delta_bi = -sqrt(3) kappa/2 and
    n_in,bi = kappa^2 / (3 sqrt(3) K_eff), where the lower root is the
    triple root kappa / (sqrt(3) K_eff)."""
    s = ref.default_system()
    with mpmath.workdps(60):
        ka, k = mpmath.mpf(s.kappa), mpmath.mpf(s.k_eff)
        d_bi = -mpmath.sqrt(3) * ka / 2
        n_in_bi = ka ** 2 / (3 * mpmath.sqrt(3) * k)
        n_bi = ka / (mpmath.sqrt(3) * k)
    disc, scale = ref.discriminant_mp(s, d_bi, n_in_bi)
    assert abs(disc) <= 1e-40 * scale
    assert abs(ref.lower_root_mp(s, d_bi, n_in_bi) / n_bi - 1) < 1e-15
    below = [ref.discriminant_mp(s, d_bi * (1 + x), n_in_bi * (1 - 1e-6))[0]
             for x in (-0.02, -0.005, 0.0, 0.005, 0.02)]
    assert all(d < 0 for d in below), "bistability below the bifurcation drive"
    drives = [n_in_bi * 10 ** (k / 100) for k in range(-100, 101)]
    deeper = [ref.discriminant_mp(s, 1.5 * d_bi, n)[0] for n in drives]
    assert any(d > 0 for d in deeper), "no bistability beyond Delta_bi"
    nearer = [ref.discriminant_mp(s, 0.9 * d_bi, n)[0] for n in drives]
    assert all(d < 0 for d in nearer), "bistability closer to resonance than Delta_bi"
    d_f, n_f = ref.bifurcation(s)
    assert d_f == pytest.approx(float(d_bi), rel=1e-15)
    assert n_f == pytest.approx(float(n_in_bi), rel=1e-15)


def test_reference_float_root_matches_50_digits():
    s = ref.default_system()
    n_in = ref.equal_drive(s)
    deltas = [ref.bifurcation(s)[0] * x for x in (0.5, 0.99, 1.0, 1.001, 1.5, 3.0)]
    floats = ref.lower_root_array(s, deltas, n_in)
    for d, f in zip(deltas, floats):
        assert f == pytest.approx(float(ref.lower_root_mp(s, d, n_in)), rel=1e-8)


def test_reference_optimum_reproduces_paper_occupation():
    s = ref.default_system()
    _, n_m = ref.min_occupation(s, ref.equal_drive(s))
    assert n_m == pytest.approx(12.66, rel=0.03)
    _, n_lin = ref.min_occupation(s.linear(), ref.equal_drive(s))
    assert n_lin == pytest.approx(123.33, rel=0.03)


# ----------------------------------------------------------------------
# profile

def test_profile_accepts_real_output(profile):
    rnd, outputs = profile
    v = checks.check_profile(outputs, rnd, SEED)
    assert v.correct, v.problems
    assert v.failed == 0
    assert v.attempted == plan.FIG2_POINTS + plan.FIG4_POINTS + 1


def test_profile_rejects_shifted_n_c(profile):
    rnd, outputs = profile

    def shift(header, fields):
        i = header.index("n_c_lower")
        fields[i] = repr(float(fields[i]) * (1 + 1e-7))
        return fields

    bad = with_output(outputs, "fig2", edit_csv(outputs["fig2"][1], shift))
    v = checks.check_profile(bad, rnd, SEED)
    assert any("n_c_lower" in p for p in v.problems)


def test_profile_rejects_unconfirmed_anti_damping(profile):
    rnd, outputs = profile

    def claim(header, fields):
        if not fields[header.index("error")]:
            fields[header.index("error")] = "net mechanical anti-damping"
            fields[header.index("n_m")] = "nan"
        return fields

    bad = with_output(outputs, "fig2", edit_csv(outputs["fig2"][1], claim))
    v = checks.check_profile(bad, rnd, SEED)
    assert any("reference damping is positive" in p for p in v.problems)


def test_profile_rejects_wrong_root_count(profile):
    rnd, outputs = profile

    def three(header, fields):
        fields[header.index("n_roots")] = "3"
        return fields

    bad = with_output(outputs, "fig4", edit_csv(outputs["fig4"][1], three))
    v = checks.check_profile(bad, rnd, SEED)
    assert any("n_roots" in p for p in v.problems)


def test_profile_rejects_blank_root_count_and_nan_rates(profile):
    rnd, outputs = profile

    def blank(header, fields):
        fields[header.index("n_roots")] = ""
        fields[header.index("c_eff")] = "nan"
        return fields

    bad = with_output(outputs, "fig4", edit_csv(outputs["fig4"][1], blank))
    v = checks.check_profile(bad, rnd, SEED)
    assert any("no n_roots" in p for p in v.problems)
    assert any("c_eff or a scattering rate is missing" in p for p in v.problems)


def test_profile_rejects_off_paper_table(profile):
    rnd, outputs = profile
    table = json.loads(outputs["table"][1])
    table["c_eff_nl"] *= 1.05
    v = checks.check_profile(with_output(outputs, "table", json.dumps(table)), rnd, SEED)
    assert any("c_eff_nl" in p for p in v.problems)


# ----------------------------------------------------------------------
# optimize

def test_optimize_accepts_real_output(optimize):
    rnd, outputs = optimize
    v = checks.check_optimize(outputs, rnd, SEED)
    assert v.correct, v.problems
    assert (v.attempted, v.failed) == (plan.FIG6_POINTS + plan.FIG8_POINTS + plan.FIG9_POINTS, 0)


def test_optimize_rejects_occupation_off_reference(optimize):
    rnd, outputs = optimize

    def lower(header, fields):
        i = header.index("n_m_opt")
        fields[i] = repr(float(fields[i]) * 0.99)
        return fields

    bad = with_output(outputs, "fig6", edit_csv(outputs["fig6"][1], lower))
    v = checks.check_optimize(bad, rnd, SEED)
    assert any("at the reported point" in p for p in v.problems)


def test_optimize_rejects_missed_minimum(optimize):
    rnd, outputs = optimize

    def move(header, fields):
        # report a point 0.01 kappa off the optimum with its true occupation:
        # consistent, but not the minimum
        frac = float(fields[header.index("omega_frac")])
        s = ref.default_system().with_g0(ref.TAU * 15e3).sideband(frac)
        delta = float(fields[header.index("delta_rad_s")]) + 0.01 * s.kappa
        n_in = float(fields[header.index("n_in_per_s")])
        fields[header.index("delta_rad_s")] = repr(delta)
        fields[header.index("n_m")] = repr(ref.occupation(s, delta, n_in, plan.FIG9_XI))
        return fields

    bad = with_output(outputs, "fig9", edit_csv(outputs["fig9"][1], move))
    v = checks.check_optimize(bad, rnd, SEED)
    assert any("local reference scan" in p for p in v.problems)
    assert not any("at the reported point" in p for p in v.problems)


def test_optimize_rejects_drive_above_cap(optimize):
    rnd, outputs = optimize

    def raise_drive(header, fields):
        fields[header.index("n_in_opt_fraction")] = "1.0000001"
        return fields

    bad = with_output(outputs, "fig6", edit_csv(outputs["fig6"][1], raise_drive))
    v = checks.check_optimize(bad, rnd, SEED)
    assert any("above the cap" in p for p in v.problems)


def test_optimize_rejects_missing_row_and_blank_value(optimize):
    rnd, outputs = optimize
    header, rows = checks.read_csv(outputs["fig8"][1])
    short = "\n".join([",".join(header), ",".join(rows[0])]) + "\n"

    def blank(header, fields):
        fields[header.index("n_m_opt")] = ""
        return fields

    bad = with_output(with_output(outputs, "fig8", short), "fig6",
                      edit_csv(outputs["fig6"][1], blank))
    v = checks.check_optimize(bad, rnd, SEED)
    assert any("fig8: 1 rows" in p for p in v.problems)
    assert any("fig6 row 0: n_m nan" in p for p in v.problems)


# ----------------------------------------------------------------------
# map

def test_map_accepts_real_output_and_counts_broken_rows(ground_map):
    rnd, outputs = ground_map
    v = checks.check_map(outputs, rnd, SEED)
    assert v.correct, v.problems
    broken = 0
    for mode in plan.MAP_MODES:
        header, rows = checks.read_csv(outputs[f"map_{mode}"][1])
        broken += sum(len(r) != len(header) for r in rows)
    assert v.failed == broken


def _map_edit(outputs, mode, edit):
    name = f"map_{mode}"
    header, rows = checks.read_csv(outputs[name][1])
    lines = [",".join(header)] + [",".join(edit(header, list(r))) for r in rows]
    return with_output(outputs, name, "\n".join(lines) + "\n")


def test_map_rejects_flipped_ground_state(ground_map):
    rnd, outputs = ground_map
    done = []

    def flip(header, fields):
        if fields[0] == "map" and not done:
            i = header.index("ground_state")
            fields[i] = "false" if fields[i] == "true" else "true"
            done.append(1)
        return fields

    v = checks.check_map(_map_edit(outputs, "nonlinear", flip), rnd, SEED)
    assert any("ground_state" in p for p in v.problems)


def test_map_rejects_boundary_outside_bracket(ground_map):
    rnd, outputs = ground_map

    def move(header, fields):
        if fields[0] == "boundary" and fields[3]:
            fields[3] = repr(min(float(fields[3]) + 0.1, 0.35))
        return fields

    v = checks.check_map(_map_edit(outputs, "nonlinear", move), rnd, SEED)
    assert any("outside the crossing" in p for p in v.problems)


def test_map_rejects_no_crossing_claim_where_cells_cross(ground_map):
    rnd, outputs = ground_map

    def drop(header, fields):
        if fields[0] == "boundary" and fields[3]:
            fields[3] = ""
            fields[4] = "occupation does not cross one phonon"
        return fields

    v = checks.check_map(_map_edit(outputs, "linear_comparison", drop), rnd, SEED)
    assert any("no crossing reported" in p for p in v.problems)


def test_map_rejects_cell_below_backaction_floor(ground_map):
    rnd, outputs = ground_map

    def floor(header, fields):
        if fields[0] == "map":
            fields[header.index("n_m")] = "1e-9"
            fields[header.index("ground_state")] = "true"
        return fields

    v = checks.check_map(_map_edit(outputs, "nonlinear", floor), rnd, SEED)
    assert any("backaction floor" in p for p in v.problems)


# ----------------------------------------------------------------------
# oracle

def test_oracle_accepts_real_output(oracle):
    rnd, outputs = oracle
    v = checks.check_oracle(outputs, rnd, SEED)
    assert v.correct, v.problems
    assert (v.attempted, v.failed) == (len(rnd.points), 0)


def test_oracle_rejects_spectrum_gap(oracle):
    rnd, outputs = oracle

    def nudge(header, fields):
        fields[2] = repr(float(fields[2]) * (1 + 1e-6))
        return fields

    bad = with_output(outputs, "ff0", edit_csv(outputs["ff0"][1], nudge))
    v = checks.check_oracle(bad, rnd, SEED)
    assert any("ff oracle column" in p for p in v.problems)


def test_oracle_rejects_quadrature_gap(oracle):
    rnd, outputs = oracle
    cool = json.loads(outputs["cool1"][1])
    cool["n_oracle"] = cool["n_closed"] * 1.03
    quad = json.loads(outputs["quad2"][1])
    quad["value"] *= 0.97
    bad = with_output(with_output(outputs, "cool1", json.dumps(cool)),
                      "quad2", json.dumps(quad))
    v = checks.check_oracle(bad, rnd, SEED)
    assert any("point 1: oracle occupation" in p for p in v.problems)
    assert any("point 2: integrate_mech_spectrum" in p for p in v.problems)


def test_oracle_counts_failed_call(oracle):
    rnd, outputs = oracle
    bad = dict(outputs)
    bad["bb3"] = (3, "numerical failure")
    v = checks.check_oracle(bad, rnd, SEED)
    assert v.correct and v.failed == 1 and v.attempted == len(rnd.points)
