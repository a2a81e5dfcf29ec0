import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kerrcool as kc
from kerrcool import sweeps
from kerrcool.cli import run_cli, spec_from_document
from kerrcool.io import read_key_value_text
from kerrcool.params import TAU
from kerrcool.sweeps import (AxisRange, Mode, SweepKind, SweepSpec,
                             max_damping_point, optimize_operating_point,
                             sideband_variant)


@pytest.fixture(scope="module")
def profile(defaults, crit_drive):
    deltas = np.linspace(-12.0, -0.05, 241) * defaults.omega_m
    return sweeps.detuning_profile(defaults, crit_drive, deltas,
                                   include_skewness=True)


class TestDetuningProfile:
    def test_single_valued_with_max_slope_at_bifurcation(self, defaults, crit_drive, profile):
        assert all(row["n_roots"] == 1 for row in profile)
        n_c = np.array([row["n_c_lower"] for row in profile])
        deltas = np.array([row["detuning_rad_s"] for row in profile])
        steepest = deltas[np.argmax(np.abs(np.diff(n_c)))]
        assert steepest == pytest.approx(kc.bifurcation(defaults).delta_bi,
                                         abs=3 * abs(deltas[1] - deltas[0]))

    def test_cooperativity_peak_beats_linear_by_order_of_magnitude(self, profile):
        c_nl = np.nanmax([row["c_eff"] for row in profile])
        c_lin = np.nanmax([row["c_eff_linear"] for row in profile])
        assert c_nl > 10 * c_lin

    def test_linear_reference_is_lorentzian(self, defaults, crit_drive, profile):
        deltas = np.array([row["detuning_rad_s"] for row in profile])
        n_lin = np.array([row["n_c_linear"] for row in profile])
        expected = defaults.kappa * crit_drive / (deltas ** 2 + defaults.kappa ** 2 / 4)
        assert n_lin == pytest.approx(expected, rel=1e-3)

    def test_effective_skewness_peaks_at_bifurcation(self, defaults, profile):
        geff = np.array([row["skewness_effective"] for row in profile])
        deltas = np.array([row["detuning_rad_s"] for row in profile])
        peak = deltas[np.argmax(geff)]
        assert peak == pytest.approx(kc.bifurcation(defaults).delta_bi,
                                     abs=1.01 * abs(deltas[1] - deltas[0]))

    def test_rows_carry_errors_not_exceptions(self, defaults, crit_drive):
        # scanning through heating territory must not abort the sweep
        deltas = np.linspace(-2.0, 2.0, 21) * defaults.omega_m
        rows = sweeps.detuning_profile(defaults, crit_drive, deltas,
                                       include_skewness=False)
        assert len(rows) == 21
        assert any(row["error"] for row in rows)

    def test_zero_drive_skewness_is_typed(self, defaults):
        # at zero drive every photon spectrum is zero and has no skewness
        deltas = np.linspace(-2.0, -0.1, 5) * defaults.omega_m
        with pytest.raises(kc.errors.KerrcoolError, match="zero variance"):
            sweeps.detuning_profile(defaults, 0.0, deltas, include_skewness=True)
        rows = sweeps.detuning_profile(defaults, 0.0, deltas, include_skewness=False)
        assert [row["n_m"] for row in rows] == [defaults.n_th] * 5
        assert not any(row["error"] for row in rows)


class TestOptimizers:
    def test_defaults_optimum(self, defaults, crit_drive):
        delta, n_in, rep = optimize_operating_point(defaults)
        assert rep.n_rate == pytest.approx(12.657, rel=1e-3)
        assert n_in == pytest.approx(crit_drive, rel=1e-6)

    def test_optimum_is_local_minimum(self, defaults):
        delta, n_in, rep = optimize_operating_point(defaults)
        base = rep.n_rate
        for eps in (-0.01, 0.01):
            perturbed = kc.steady_at(defaults, delta * (1 + eps), n_in)
            assert kc.occupation(perturbed, defaults).n_rate >= base * (1 - 1e-4)
            bumped = min(n_in * (1 + eps), kc.critical_power(defaults))
            perturbed = kc.steady_at(defaults, delta, bumped)
            assert kc.occupation(perturbed, defaults).n_rate >= base * (1 - 1e-4)

    def test_squeezed_optimum_reports_minimized_occupation(self, defaults):
        xi = 0.9
        delta, n_in, rep = optimize_operating_point(defaults, xi=xi)
        assert rep.n_rate == sweeps._occupation_lane(defaults, delta, n_in, xi)[0]
        assert rep.n_rate == pytest.approx(10.705, rel=1e-4)
        assert rep.n_closed == pytest.approx(rep.n_rate, rel=1e-10)
        # the matched-squeezing rates of the spectrum route
        ss = kc.steady_at(defaults, delta, n_in)
        sq = kc.matched_squeeze(ss, defaults, xi)
        g_s, g_as, g_opt = kc.squeezed_rates(ss, defaults, sq)
        assert rep.rates.gamma_stokes == pytest.approx(g_s, rel=1e-10)
        assert rep.rates.gamma_antistokes == pytest.approx(g_as, rel=1e-10)
        assert rep.rates.gamma_opt == pytest.approx(g_opt, rel=1e-10)
        vacuum = kc.occupation(ss, defaults)
        assert rep.backaction_share == pytest.approx((1 - xi) * vacuum.backaction_share,
                                                     rel=1e-14)
        assert rep.thermal_share == vacuum.thermal_share

    def test_power_cap_respected(self, defaults):
        cap = 0.7
        _, n_in, _ = optimize_operating_point(defaults, power_cap=cap)
        assert n_in <= cap * kc.bifurcation(defaults).n_in_bi * (1 + 1e-12)

    def test_max_damping_matches_reference(self, defaults, crit_drive):
        _, c_eff = max_damping_point(defaults, crit_drive)
        assert c_eff == pytest.approx(263.9, rel=1e-3)

    def test_linear_power_optimum_near_own_bifurcation(self, defaults):
        # the linear system's best power sits just below its own
        # mechanical-Kerr bifurcation
        p = defaults.replace(g0=TAU * 15e3).without_kerr()
        bi = kc.bifurcation(p)
        delta, n_in, rep = optimize_operating_point(p, n_in_bi=bi.n_in_bi)
        assert 0.9 <= n_in / bi.n_in_bi <= 1.0

    def test_power_ratio_follows_kerr_ratio(self, defaults):
        # n_in_bi(K=0) / n_in_bi = 1 + K omega_m / (2 g0^2) up to the
        # tiny gamma_m correction
        p = defaults.replace(g0=TAU * 15e3)
        ratio = kc.bifurcation(p.without_kerr()).n_in_bi / kc.bifurcation(p).n_in_bi
        expected = 1.0 + p.kerr * p.omega_m / (2.0 * p.g0 ** 2)
        assert ratio == pytest.approx(expected, rel=1e-6)


class TestSidebandMachinery:
    def test_variant_holds_temperature_fixed(self, defaults):
        pv = sideband_variant(defaults, 0.13)
        assert pv.omega_m == pytest.approx(0.13 * defaults.kappa)
        assert pv.bath_temperature == pytest.approx(defaults.bath_temperature, rel=1e-9)
        assert pv.n_th < defaults.n_th  # higher frequency, fewer phonons

    def test_sideband_row_contents(self, defaults):
        p = defaults.replace(g0=TAU * 15e3)
        row = sweeps._sideband_row(p, 0.13, Mode.NONLINEAR, 0.9999999, 0.44)
        assert not row["error"]
        assert row["n_m"] == pytest.approx(0.992, rel=1e-2)
        assert row["squeeze_db"] == pytest.approx(6.48, abs=0.05)
        row_lin = sweeps._sideband_row(p, 0.13, Mode.LINEAR_COMPARISON, 0.9999999, 0.99)
        assert row_lin["squeeze_db"] == pytest.approx(10.15, abs=0.1)

    def test_ground_state_onset_bracket_error(self, defaults):
        with pytest.raises(kc.errors.KerrcoolError):
            sweeps.ground_state_onset_omega(defaults, defaults.g0, Mode.NONLINEAR,
                                            bracket=(0.3, 0.4))

    def test_vacuum_ground_state_crossing_near_fifth(self, defaults):
        # at 15 kHz coupling and critical drive the nonlinear occupation
        # crosses one phonon around omega_m/kappa ~ 0.2
        onset = sweeps.ground_state_onset_omega(
            defaults, TAU * 15e3, Mode.NONLINEAR, bracket=(0.1, 0.5))
        assert 0.18 < onset < 0.22

    def test_squeezed_curves_intersect_at_unity(self, defaults):
        # the xi = 0.44 nonlinear and xi = 0.99 linear minimum-occupation
        # curves meet right at one phonon at omega_m/kappa = 0.13
        p = defaults.replace(g0=TAU * 15e3)
        nl = sweeps._sideband_row(p, 0.13, Mode.NONLINEAR, 0.9999999, 0.44)
        lin = sweeps._sideband_row(p, 0.13, Mode.LINEAR_COMPARISON, 0.9999999, 0.99)
        assert nl["n_m"] == pytest.approx(1.0, abs=0.02)
        assert lin["n_m"] == pytest.approx(1.0, abs=0.02)


class TestRunSweep:
    def test_coupling_sweep_rows(self, defaults):
        spec = SweepSpec(SweepKind.COUPLING_SWEEP,
                         {"g0_hz": AxisRange(10e3, 24e3, 3)})
        rows = sweeps.run_sweep(spec, defaults)
        assert [row["g0_hz"] for row in rows] == pytest.approx([10e3, 17e3, 24e3])
        assert all(not row["error"] for row in rows)
        assert all(row["n_m_opt"] <= row["n_m_maxdamp"] * (1 + 1e-9) for row in rows)

    def test_sideband_sweep_monotone_backaction_band(self, defaults):
        p = defaults.replace(g0=TAU * 15e3)
        spec = SweepSpec(SweepKind.SIDEBAND_SWEEP,
                         {"omega_frac": AxisRange(0.05, 0.4, 5)})
        rows = sweeps.run_sweep(spec, p)
        band = [row["n_ba_min"] for row in rows]
        assert np.all(np.diff(band) < 0)
        assert all(row["n_m"] > row["n_ba_min"] * 0.999 for row in rows)

    def test_linear_tail_heats_up(self, defaults):
        # beyond omega_m ~ kappa the linear system at the fixed nonlinear
        # drive runs out of optimal power and the occupation rises
        p = defaults.replace(g0=TAU * 15e3)
        spec = SweepSpec(SweepKind.SIDEBAND_SWEEP,
                         {"omega_frac": AxisRange(1.0, 2.0, 4)},
                         mode=Mode.LINEAR_COMPARISON)
        rows = sweeps.run_sweep(spec, p)
        values = [row["n_m"] for row in rows]
        assert values[-1] > values[0]

    def test_ground_state_map(self, defaults):
        spec = SweepSpec(SweepKind.GROUND_STATE_MAP,
                         {"g0_hz": AxisRange(10e3, 30e3, 3),
                          "omega_frac": AxisRange(0.15, 0.25, 3)})
        rows = sweeps.run_sweep(spec, defaults)
        grid = [r for r in rows if r["kind"] == "map"]
        boundary = [r for r in rows if r["kind"] == "boundary"]
        assert len(grid) == 9 and len(boundary) == 3
        assert any(row["ground_state"] for row in grid)
        assert any(not row["ground_state"] for row in grid)
        for row in boundary:
            if not row["error"]:
                assert 0.15 <= row["omega_frac"] <= 0.25
        # boundary crossings: a map point below the boundary frequency at
        # the same coupling stays above one phonon
        lookup = {round(r["g0_hz"]): r["omega_frac"] for r in boundary if not r["error"]}
        for row in grid:
            onset = lookup.get(round(row["g0_hz"]))
            if onset is not None and row["omega_frac"] < onset - 0.01:
                assert not row["ground_state"]

    def test_parallel_rows_identical(self, defaults):
        # a map puts its boundary rows after the cells
        spec = SweepSpec(SweepKind.GROUND_STATE_MAP,
                         {"g0_hz": AxisRange(10e3, 30e3, 2),
                          "omega_frac": AxisRange(0.15, 0.25, 2)})
        rows = sweeps.run_sweep(spec, defaults)
        assert [row["kind"] for row in rows] == ["map"] * 4 + ["boundary"] * 2

    def test_optimal_power_curve_modes(self, defaults):
        p = defaults.replace(g0=TAU * 15e3)
        nl = sweeps.run_sweep(SweepSpec(SweepKind.OPTIMAL_POWER_CURVE,
                                        {"omega_frac": AxisRange(0.1, 0.1001, 2)}), p)
        lin = sweeps.run_sweep(SweepSpec(SweepKind.OPTIMAL_POWER_CURVE,
                                         {"omega_frac": AxisRange(0.1, 0.1001, 2)},
                                         mode=Mode.LINEAR_COMPARISON), p)
        # the linear system needs roughly the Kerr ratio more power
        assert lin[0]["n_in_per_s"] / nl[0]["n_in_per_s"] > 50

    @pytest.mark.parametrize("kind,axes,broken", [
        (SweepKind.COUPLING_SWEEP, {"g0_hz": (1e3, 2e3)}, "max_damping_point"),
        (SweepKind.SIDEBAND_SWEEP, {"omega_frac": (0.1, 0.2)}, "optimal_detuning"),
        (SweepKind.OPTIMAL_POWER_CURVE, {"omega_frac": (0.1, 0.2)}, "optimal_detuning"),
        (SweepKind.GROUND_STATE_MAP, {"g0_hz": (1e4, 2e4), "omega_frac": (0.1, 0.2)},
         "_map_cell"),
    ])
    def test_internal_error_stays_in_its_row(self, defaults, monkeypatch, kind, axes, broken):
        # a defect (no KerrcoolError) inside a row is recorded there, typed,
        # and the sweep goes on
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(sweeps, broken, fail)
        spec = SweepSpec(kind, {name: AxisRange(*ends, 2) for name, ends in axes.items()})
        rows = sweeps.run_sweep(spec, defaults)
        assert len(rows) == (6 if kind is SweepKind.GROUND_STATE_MAP else 2)
        assert all(row["error"] == "internal: RuntimeError: boom" for row in rows)

    def test_each_row_kind_stated_once(self):
        # every sweep kind, the detuning profile too, is one entry giving
        # its rows
        assert set(sweeps._KINDS) == set(SweepKind)


class TestConfigParsing:
    def test_key_value_text(self):
        doc = read_key_value_text("# comment\nf_m = 0.3e6\nkappa: 3e6\n\n")
        assert doc == {"f_m": "0.3e6", "kappa": "3e6"}

    def test_bad_line_raises(self):
        with pytest.raises(kc.errors.ConfigError):
            read_key_value_text("just some words\n")

    def test_sweep_spec_document(self):
        spec = spec_from_document({
            "kind": "sideband_sweep_squeezed",
            "mode": "linear_comparison",
            "omega_frac": "0.02, 0.5, 11, log",
            "xi": "0.9",
        })
        assert spec.kind is SweepKind.SIDEBAND_SWEEP_SQUEEZED
        assert spec.mode is Mode.LINEAR_COMPARISON
        assert spec.squeeze_xi == 0.9
        grid = spec.ranges["omega_frac"].grid()
        assert len(grid) == 11 and grid[0] == pytest.approx(0.02)

    def test_unknown_kind_rejected(self):
        with pytest.raises(kc.errors.ConfigError):
            spec_from_document({"kind": "nonsense"})


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert run_cli(["steady", "--bogus"]) == 1
        # a purity outside [0, 1] is refused by the parser
        for argv in (["squeeze", "--xi", "1.5"], ["squeeze", "--xi", "-0.1"],
                     ["squeeze", "--xi", "x"], ["spectrum", "--kind", "ff", "--xi", "1.5"]):
            assert run_cli(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--xi" in captured.err and "Traceback" not in captured.err
        # grid sizes below two, worker counts below one, on every target,
        # spectrum spans that are negative, not finite, overflow the grid or
        # are too small for its points, and --oracle outside spectrum and cool
        for argv, flag in ((["reproduce", "fig7", "--points", "0"], "--points"),
                           (["reproduce", "fig7", "--points", "1"], "--points"),
                           (["reproduce", "fig2", "--points", "-3"], "--points"),
                           (["reproduce", "table-values", "--points", "-3"], "--points"),
                           (["reproduce", "table-values", "--jobs", "0"], "--jobs"),
                           (["reproduce", "fig6", "--jobs", "-5"], "--jobs"),
                           (["sweep", "spec.cfg", "--jobs", "0"], "--jobs"),
                           (["steady", "--jobs", "x"], "--jobs"),
                           (["spectrum", "--omega-span-hz", "-1"], "--omega-span-hz"),
                           (["spectrum", "--omega-span-hz", "nan"], "--omega-span-hz"),
                           (["spectrum", "--omega-span-hz", "inf"], "--omega-span-hz"),
                           (["spectrum", "--omega-span-hz", "1e308"], "--omega-span-hz"),
                           (["spectrum", "--omega-span-hz", "1e-320"], "--omega-span-hz"),
                           (["steady", "--oracle"], "--oracle")):
            assert run_cli(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert flag in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("kind", [["--kind", "nn"], ["--kind", "bb"],
                                      ["--kind", "ff", "--xi", "0.9"]])
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_largest_spectrum_span(self, kind, oracle, capsys):
        # the largest half span keeps the fourth power of the grid's
        # angular end finite: every kind evaluates there without a warning
        # (warnings are errors under this suite), and the next float up is
        # a usage error
        bound = 1.8428883373056723e76
        argv = ["spectrum", "--points", "5"] + kind + oracle + ["--omega-span-hz"]
        assert run_cli(argv + [repr(bound)]) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(argv + [repr(float(np.nextafter(bound, np.inf)))]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--omega-span-hz" in captured.err

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("f_m = 0.3e6\n")  # missing keys
        assert run_cli(["steady", "--config", str(bad)]) == 2
        capsys.readouterr()
        # a negative or non-finite drive, given as a flux or as a fraction
        # of bifurcation; cool and squeeze search a detuning on it, and the
        # error must still name the drive
        drives = (["--n-in", "-1"], ["--n-in-frac", "-1"], ["--n-in", "nan"],
                  ["--n-in", "inf"], ["--n-in-frac", "nan"], ["--n-in-frac", "inf"])
        for command in (["steady"], ["cool"], ["squeeze", "--xi", "0.5"]):
            for drive in drives:
                assert run_cli([*command, *drive]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error: n_in must be >= 0") and "Traceback" not in err
        # a finite drive that overflows the resolvent of the photon cubic
        for argv in (["steady", "--n-in", "1e200"], ["poles", "--n-in", "1e308"],
                     ["cool", "--n-in", "1e200"], ["squeeze", "--xi", "0.5", "--n-in", "1e200"]):
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: n_in must keep the photon cubic finite")
            assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        # malformed numbers in a sweep spec
        spec = tmp_path / "bad.spec"
        for text, key in (("omega_frac = a, 0.2, 2\n", "axis start"),
                          ("omega_frac = 0.1, 0.2, 2.5\n", "axis count"),
                          ("omega_frac = 0.1, 0.2, 2\nxi = x\n", "xi"),
                          ("omega_frac = 0.1, 0.2, 2\ncap_fraction = most\n", "cap_fraction")):
            spec.write_text("kind = sideband_sweep_squeezed\n" + text)
            assert run_cli(["sweep", str(spec)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {key}") and "Traceback" not in err
        # squeezed drives with no valid N_s
        for extra, key in ((["--xi", "0.5", "--n-s", "-1"], "n_s must be >= 0"),
                           (["--xi", "0", "--squeeze-db", "3"], "purity xi must be positive")):
            assert run_cli(["spectrum", "--kind", "ff", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"config error: {key}")
        # a cavity without any Kerr has no bifurcation to default to
        linear = tmp_path / "linear.cfg"
        linear.write_text("f_m = 300e3\ngamma_m = 100\nkappa = 3e6\nkerr = 0\n"
                          "g0 = 0\nn_th = 2778\n")
        assert run_cli(["steady", "--config", str(linear), "--n-in", "1e6",
                        "--detuning-hz", "-1e6"]) == 2
        assert capsys.readouterr().err.startswith("config error: a strictly linear cavity")

    def test_numerical_failure_exit_code(self, capsys):
        # on the heated flank (Delta_eff < 0) the optical anti-damping
        # exceeds gamma_m and the occupation is undefined
        assert run_cli(["cool", "--detuning-hz", "-1.2e6", "--format", "json"]) == 3
        # blue of resonance no squeezing gain matches the sidebands
        capsys.readouterr()
        assert run_cli(["squeeze", "--xi", "0.5", "--detuning-hz", "100000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: sideband ratio") and "Traceback" not in err

    def test_table_values_json(self, capsys):
        assert run_cli(["reproduce", "table-values", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c_eff_nl"] == pytest.approx(264, rel=0.03)
        assert payload["c_eff_lin"] == pytest.approx(22, rel=0.03)
        assert payload["n_m_nl"] == pytest.approx(12.66, rel=0.03)
        assert payload["n_m_lin"] == pytest.approx(123.33, rel=0.03)
        assert payload["n_th"] == 2778.0

    def test_steady_command(self, capsys):
        assert run_cli(["steady", "--detuning-hz", "-2.598e6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["branches"]) == 1
        assert payload["branches"][0]["stable"]
        assert payload["branches"][0]["n_c"] == pytest.approx(11.2, rel=0.02)

    def test_spectrum_csv_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["spectrum", "--kind", "nn", "--points", "101",
                "--detuning-hz", "-2.6e6"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        text = out1.read_text()
        assert text == out2.read_text()
        header = text.splitlines()[0].split(",")
        assert header[0] == "omega_rad_s" and header[1] == "s_nn"
        assert len(text.splitlines()) == 102

    def test_cool_with_oracle(self, capsys):
        assert run_cli(["cool", "--format", "json", "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_rel_gap"] < 0.02
        assert payload["n_rate"] == pytest.approx(12.657, rel=1e-3)

    def test_force_spectrum_with_squeezing_and_oracle(self, capsys):
        assert run_cli(["spectrum", "--kind", "ff", "--xi", "0.9",
                        "--points", "51", "--detuning-hz", "-2.7e6",
                        "--oracle"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "omega_rad_s,s_ff,oracle"
        for line in lines[1:]:
            _, closed, numeric = (float(x) for x in line.split(","))
            # the numeric route keeps the optomechanical hybridization the
            # cavity-only closed form drops; at g0/kappa ~ 6e-4 the gap
            # away from the mechanical lines is a few 1e-4
            assert numeric == pytest.approx(closed, rel=2e-3)

    def test_poles_command(self, capsys):
        assert run_cli(["poles", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["region"] == "split_decays"
        assert payload["ep_delta_plus_rad_s"] < payload["ep_delta_minus_rad_s"] < 0

    def test_poles_without_kerr_reports_no_exceptional_points(self, tmp_path, capsys):
        cfg = tmp_path / "no_kerr.cfg"
        cfg.write_text("f_m = 300e3\ngamma_m = 100\nkappa = 3e6\nkerr = 0\n"
                       "g0 = 1700\nn_th = 2778\n")
        assert run_cli(["poles", "--config", str(cfg), "--n-in", "1e6",
                        "--detuning-hz", "-1e6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ep_delta_minus_rad_s"] is None
        assert payload["ep_delta_plus_rad_s"] is None

    @pytest.mark.parametrize("frac", ("1.5", "3", "10"))
    def test_poles_above_bifurcation(self, capsys, frac):
        # above the bifurcation drive the lower branch jumps; the -|Lambda|
        # point leaves it, and poles still writes strict JSON
        assert run_cli(["poles", "--n-in-frac", frac, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        def refuse(constant):
            raise ValueError(f"non-finite number {constant} in JSON")

        payload = json.loads(captured.out, parse_constant=refuse)
        assert payload["ep_delta_minus_rad_s"] is None
        assert payload["ep_delta_plus_rad_s"] is None or payload["ep_delta_plus_rad_s"] < 0

    def test_json_writes_non_finite_as_null(self, tmp_path, capsys):
        # NaN and Infinity are not JSON: a strict parser reads each as null

        def refuse(constant):
            raise ValueError(f"non-finite number {constant} in JSON")

        base = "f_m = 0.3e6\ngamma_m = 0.5\nkappa = 3e6\nn_th = 2778\n"
        weak, no_kerr, spec = (tmp_path / name for name in ("weak.cfg", "no_kerr.cfg",
                                                             "profile.spec"))
        weak.write_text(base + "kerr = 0.16e6\ng0 = 1e-3\n")
        no_kerr.write_text(base + "kerr = 0\ng0 = 1.7e3\n")
        spec.write_text("kind = detuning_profile\ndetuning_hz = -1e6, 1e6, 3\n")
        runs = ((["cool", "--config", str(weak), "--detuning-hz", "-100000"],
                 lambda out: out["n_backaction"]),
                (["poles", "--config", str(no_kerr)],
                 lambda out: out["decay_extremum_residual"]),
                (["sweep", str(spec)], lambda out: out[0]["n_m"]))
        for argv, null in runs:
            assert run_cli(argv + ["--format", "json"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert null(json.loads(captured.out, parse_constant=refuse)) is None
        # CSV keeps nan
        assert run_cli(["sweep", str(spec)]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["n_m"] == "nan"

    def test_exceptional_points_leave_sweeps_unloaded(self):
        script = ("import sys\n"
                  "import kerrcool\n"
                  "p = kerrcool.default_params()\n"
                  "ep = kerrcool.exceptional_points(p, kerrcool.critical_power(p))\n"
                  "assert None not in ep, ep\n"
                  "print('kerrcool.sweeps' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(kc.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.split() == ["False"]

    def test_squeeze_command(self, capsys):
        assert run_cli(["squeeze", "--xi", "0.9", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_ba_squeezed"] == pytest.approx(
            0.1 * payload["n_ba_vacuum"], rel=1e-9)
        assert payload["xi"] == 0.9

    def test_sweep_command_partial_failures_exit_zero(self, tmp_path, capsys):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("kind = sideband_sweep\nomega_frac = 0.08, 0.2, 3\n")
        assert run_cli(["sweep", str(spec), "--config", "/nonexistent"]) == 2
        assert run_cli(["sweep", str(spec)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("omega_frac")
        assert len(out.splitlines()) == 4

    def test_sweep_spec_xi(self, tmp_path, capsys):
        # a sideband sweep under either name honours the spec's xi
        spec = tmp_path / "sweep.cfg"
        outputs = []
        for kind in ("sideband_sweep", "sideband_sweep_squeezed"):
            spec.write_text(f"kind = {kind}\nomega_frac = 0.08, 0.2, 2\nxi = 0.9\n")
            assert run_cli(["sweep", str(spec)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        header = outputs[0].splitlines()[0].split(",")
        assert {"wp", "squeeze_db", "n_ba_min_squeezed"} <= set(header)
        # the kinds that take no xi refuse it by name
        for kind, axis in (("detuning_profile", "detuning_hz = -1e6, -1e5, 2"),
                           ("coupling_sweep", "g0_hz = 2e3, 4e3, 2"),
                           ("optimal_power_curve", "omega_frac = 0.08, 0.2, 2")):
            spec.write_text(f"kind = {kind}\n{axis}\nxi = 0.5\n")
            assert run_cli(["sweep", str(spec)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: sweep kind {kind} takes no xi, got xi = 0.5\n"

    def test_sweep_spec_unknown_key(self, tmp_path, capsys):
        # a misspelt key is refused by name, not dropped
        spec = tmp_path / "sweep.cfg"
        base = "kind = sideband_sweep\nomega_frac = 0.08, 0.2, 2\n"
        for extra, named in (("cap_fracton = 0.5\n", "'cap_fracton'"),
                             ("points = 3\nXi = 0.9\n", "'points', 'Xi'")):
            spec.write_text(base + extra)
            assert run_cli(["sweep", str(spec)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"config error: unknown sweep spec key {named}; ")
        # a spec that sets every key its kind reads still runs
        spec.write_text("kind = ground_state_map\nmode = nonlinear\ncap_fraction = 0.5\n"
                        "xi = 0.9\ng0_hz = 2e3, 4e3, 2\nomega_frac = 0.08, 0.2, 2\n")
        assert run_cli(["sweep", str(spec)]) == 0
        assert capsys.readouterr().out.startswith("kind,g0_hz")

    def test_sweep_spec_unread_axis(self, tmp_path, capsys):
        # an axis the kind does not read is refused by name, not dropped,
        # and an axis it reads must be given
        spec = tmp_path / "sweep.cfg"
        spec.write_text("kind = sideband_sweep\nomega_frac = 0.08, 0.2, 2\n"
                        "g0_hz = 1e3, 2e3, 2\ndetuning_hz = -1e6, -1e5, 3\n")
        assert run_cli(["sweep", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: sweep kind sideband_sweep takes no axis "
                                "'detuning_hz', 'g0_hz'; its axes: omega_frac\n")
        spec.write_text("kind = ground_state_map\ng0_hz = 1e3, 2e3, 2\n")
        assert run_cli(["sweep", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: sweep kind ground_state_map needs axis "
                                "'omega_frac'\n")
        # each kind names the axes its rows read
        assert {kind: entry[0] for kind, entry in sweeps._KINDS.items()} == {
            SweepKind.DETUNING_PROFILE: ("detuning_hz",),
            SweepKind.COUPLING_SWEEP: ("g0_hz",),
            SweepKind.SIDEBAND_SWEEP: ("omega_frac",),
            SweepKind.SIDEBAND_SWEEP_SQUEEZED: ("omega_frac",),
            SweepKind.OPTIMAL_POWER_CURVE: ("omega_frac",),
            SweepKind.GROUND_STATE_MAP: ("g0_hz", "omega_frac"),
        }

    def test_sweep_spec_unread_mode(self, tmp_path, capsys):
        # a coupling sweep reports both modes side by side, so a mode set
        # on it is refused by name, not dropped
        spec = tmp_path / "sweep.cfg"
        spec.write_text("kind = coupling_sweep\ng0_hz = 2e3, 4e3, 2\n"
                        "mode = linear_comparison\n")
        assert run_cli(["sweep", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: sweep kind coupling_sweep takes no mode, "
                                "got mode = linear_comparison\n")
        with pytest.raises(kc.errors.ConfigError, match="takes no mode"):
            SweepSpec(SweepKind.COUPLING_SWEEP, {"g0_hz": AxisRange(2e3, 4e3, 2)},
                      Mode.NONLINEAR)
        # a kind that reads a mode takes the nonlinear one by default
        spec = SweepSpec(SweepKind.SIDEBAND_SWEEP, {"omega_frac": AxisRange(0.1, 0.2, 2)})
        assert spec.mode is Mode.NONLINEAR
        # each kind says whether its rows read a mode
        assert {kind: entry[2] for kind, entry in sweeps._KINDS.items()} == {
            SweepKind.DETUNING_PROFILE: True,
            SweepKind.COUPLING_SWEEP: False,
            SweepKind.SIDEBAND_SWEEP: True,
            SweepKind.SIDEBAND_SWEEP_SQUEEZED: True,
            SweepKind.OPTIMAL_POWER_CURVE: True,
            SweepKind.GROUND_STATE_MAP: True,
        }

    @pytest.mark.parametrize("kind", ["sideband_sweep", "optimal_power_curve"])
    def test_invalid_omega_stays_in_its_row(self, tmp_path, capsys, kind):
        # omega_m = 0 has no sideband variant: that row records the error
        # and the sweep goes on
        spec = tmp_path / "sweep.spec"
        spec.write_text(f"kind = {kind}\nomega_frac = 0, 0.25, 2\n")
        assert run_cli(["sweep", str(spec)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["omega_frac"] for row in rows] == ["0", "0.25"]
        assert rows[0]["error"] == "omega_m must be > 0 and finite, got 0.0"
        assert rows[0]["n_m"] == ""
        assert rows[1]["error"] == "" and float(rows[1]["n_m"]) > 0.0

    def test_row_errors_show_plain_floats(self, tmp_path, capsys):
        spec = tmp_path / "map.spec"
        spec.write_text("kind = ground_state_map\ng0_hz = 1e4, 2e4, 2\n"
                        "omega_frac = 0, 0.2, 2\n")
        assert run_cli(["sweep", str(spec)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        failed = [row for row in rows if row["error"]]
        # both cells at omega_m = 0 and both boundaries, whose bracket starts there
        assert len(failed) == 4
        assert all(row["error"].endswith("got 0.0") for row in failed)

    def test_bath_limits_are_no_traceback(self, tmp_path, capsys):
        # x = hbar omega / k_B T in the Bose-Einstein occupation: far above
        # 709 it overflowed expm1 (a 10 nK bath; a sideband sweep raising
        # omega_m to 10 kappa over a bath of 1e-6 phonons), and x = 0 divided
        # by zero (an infinite temperature; omega_m = 0)
        base = "f_m = 0.3e6\ngamma_m = 0.5\nkappa = 3e6\nkerr = 0.16e6\ng0 = 1.7e3\n"
        cold, hot, dilute = (tmp_path / f"{n}.cfg" for n in ("cold", "hot", "dilute"))
        cold.write_text(base + "temperature_K = 1e-8\n")
        hot.write_text(base + "temperature_K = inf\n")
        dilute.write_text(base + "n_th = 1e-6\n")
        wide, zero = tmp_path / "wide.spec", tmp_path / "zero.spec"
        wide.write_text("kind = sideband_sweep\nomega_frac = 0.1, 10, 3\n")
        zero.write_text("kind = ground_state_map\ng0_hz = 1e4, 2e4, 2\n"
                        "omega_frac = 0, 0.2, 2\n")
        for argv in (["steady", "--config", str(cold)],
                     ["steady", "--config", str(hot)],
                     ["sweep", str(wide), "--config", str(dilute)],
                     ["sweep", str(zero)]):
            assert run_cli(argv) in (0, 2, 3)
            assert "Traceback" not in capsys.readouterr().err

    def test_commands_load_no_scipy(self, tmp_path):
        # the package, the reproduce targets and the oracle round run on
        # numpy alone, and no sweep starts a process pool, whatever --jobs says
        out, fig6 = tmp_path / "table-values.json", tmp_path / "fig6.csv"
        oracle = tmp_path / "oracle.txt"
        at = "'--detuning-hz', '-4.1e6', '--n-in-frac', '0.5', '--out', out"
        script = (
            "import json, sys\n"
            "import kerrcool, kerrcool.cli\n"
            f"code = kerrcool.cli.run_cli(['reproduce', 'table-values', '--out', {str(out)!r}])\n"
            "code += kerrcool.cli.run_cli(['reproduce', 'fig6', '--points', '3', '--jobs', '2',\n"
            f"    '--out', {str(fig6)!r}])\n"
            f"out = {str(oracle)!r}\n"
            f"code += kerrcool.cli.run_cli(['cool', '--oracle', '--format', 'json', {at}])\n"
            "for kind in (['nn'], ['bb'], ['ff', '--xi', '0.9']):\n"
            "    code += kerrcool.cli.run_cli(['spectrum', '--oracle', '--points', '51',\n"
            f"                                  '--kind', *kind, {at}])\n"
            "p = kerrcool.default_params()\n"
            "ss = kerrcool.steady_at(p, -2e7, 0.5 * kerrcool.bifurcation(p).n_in_bi)\n"
            "value, err = kerrcool.integrate_mech_spectrum(ss, p)\n"
            "code += not 0.0 < err < 1e-12 * value\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m == 'scipy'\n"
            "    or m.startswith('scipy.') or m == 'concurrent.futures.process')]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(kc.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
        assert json.loads(out.read_text())
        assert fig6.read_text().startswith("g0_hz,")
        assert oracle.read_text().startswith("omega_rad_s,s_ff,oracle\n")

    def test_import_loads_only_stdlib_beyond_numpy(self):
        # set-up time is the import of kerrcool and kerrcool.cli: beyond
        # numpy it may load only the package and the standard library, and
        # none of the heavy or process-starting modules
        script = ("import json, sys\n"
                  "import numpy\n"
                  "before = set(sys.modules)\n"
                  "import kerrcool, kerrcool.cli\n"
                  "print(json.dumps(sorted(set(sys.modules) - before)))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(kc.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert "kerrcool.cli" in loaded
        assert [m for m in loaded if m.split(".")[0] != "kerrcool"
                and m.split(".")[0] not in sys.stdlib_module_names] == []
        heavy = ("scipy", "mpmath", "sympy", "hypothesis", "multiprocessing",
                 "concurrent.futures")
        assert [m for m in loaded if any(m == h or m.startswith(h + ".") for h in heavy)] == []

    def test_module_entry_point_runs_without_scipy(self):
        # `python -m kerrcool` runs from a checkout with PYTHONPATH=src;
        # -X importtime lists every module the run imports
        src = os.path.dirname(os.path.dirname(os.path.abspath(kc.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "kerrcool", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: kerrcool ")
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "kerrcool.cli" in imported
        assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]

    def test_reproduce_fig4_contains_skewness(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run_cli(["reproduce", "fig4", "--points", "41",
                        "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert "skewness_effective" in header

    def test_jobs_flag_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["reproduce", "fig6", "--points", "3", "--out", str(a)]) == 0
        assert run_cli(["reproduce", "fig6", "--points", "3", "--jobs", "2",
                        "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestInputFaults:
    """Inputs that once escaped the exit-code contract as a traceback or as
    a warning with non-finite cells: each is config error 2 now, naming the
    faulty input, with nothing on stdout."""

    @staticmethod
    def _refused(argv, capsys, start):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {start}")
        assert "Traceback" not in captured.err and "Warning" not in captured.err

    def test_unwritable_output(self, tmp_path, capsys):
        for command in (["steady"], ["reproduce", "table-values"]):
            for out in (tmp_path / "no-dir" / "out.txt", tmp_path):
                self._refused([*command, "--out", str(out)], capsys,
                              f"cannot write output {out}")

    def test_config_and_spec_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "utf16.cfg"
        bad.write_bytes(b"\xff\xfek\x00i\x00n\x00d\x00")
        for argv in (["steady", "--config", str(bad)], ["sweep", str(bad)]):
            self._refused(argv, capsys, f"cannot read config {bad}")

    def test_squeezed_drive_overflow(self, capsys):
        ff = ["spectrum", "--kind", "ff", "--xi", "0.5", "--points", "11"]
        for extra, start in ((["--squeeze-db", "7000"], "squeeze_db"),
                             (["--squeeze-db", "inf"], "squeeze_db"),
                             (["--n-s", "inf"], "n_s"),
                             (["--n-s", "1e300", "--oracle"], "n_s")):
            self._refused([*ff, *extra], capsys, start)

    def test_linear_cavity_drive_overflow(self, tmp_path, capsys):
        # K_eff = 0 has no photon cubic whose resolvent bounds the drive
        linear = tmp_path / "linear.cfg"
        linear.write_text("f_m = 300e3\ngamma_m = 100\nkappa = 3e6\nkerr = 0\n"
                          "g0 = 0\nn_th = 2778\n")
        for n_in in ("1e300", "1e308"):
            for command in (["cool"], ["spectrum", "--points", "11"]):
                self._refused([*command, "--config", str(linear), "--n-in", n_in], capsys,
                              "n_in must keep the photon number finite")
        assert run_cli(["cool", "--config", str(linear), "--n-in", "1e160"]) == 0
