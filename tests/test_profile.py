"""The array-native detuning profile against the per-row loop of scalar
point solves it replaced: same rows, same keys in the same order, same
error texts, and float cells equal bit for bit."""
import math

import numpy as np
import pytest

from kerrcool import cavity, cooling, steady, sweeps
from kerrcool.errors import KerrcoolError
from kerrcool.params import TAU


def _scalar_profile(p, n_in, deltas, include_skewness, linear_reference):
    """One row per detuning from `photon_branches`, `steady_at`,
    `cavity_poles`, `scattering_rates` and `occupation`, as the profile
    was built before it became array-native."""
    p_lin = p.without_kerr()
    if include_skewness:
        grid = cavity.skewness_grid(p)
        base_ss = steady.steady_at(p_lin, float(deltas[len(deltas) // 2]), n_in)
        g1_lin = cavity.skewness(cavity.photon_spectrum(base_ss, p_lin, grid))
    rows = []
    for d in deltas:
        row = {"detuning_rad_s": float(d), "error": ""}
        try:
            roots = steady.photon_branches(p, d, n_in)
            row["n_roots"] = len(roots)
            row["n_c_lower"] = roots[0][0]
            row["n_c_upper"] = roots[-1][0]
            ss = steady.steady_at(p, d, n_in)
            poles = cavity.cavity_poles(ss, p)
            row["pole_re_rad_s"] = abs(poles.poles[0].real)
            row["pole_im_plus_rad_s"] = poles.poles[0].imag
            row["pole_im_minus_rad_s"] = poles.poles[1].imag
            row["pole_region"] = poles.region.value
            rates = cavity.scattering_rates(ss, p)
            row["gamma_stokes_rad_s"] = rates.gamma_stokes
            row["gamma_antistokes_rad_s"] = rates.gamma_antistokes
            row["c_eff"] = rates.c_eff
            try:
                rep = cooling.occupation(ss, p)
                row["n_m"] = rep.n_rate
                row["backaction_share"] = rep.backaction_share
            except KerrcoolError as exc:
                row["n_m"] = math.nan
                row["error"] = str(exc)
            if include_skewness:
                g1 = cavity.skewness(cavity.photon_spectrum(ss, p, grid))
                row["skewness"] = g1
                row["skewness_effective"] = g1 - g1_lin
            if linear_reference:
                ss_lin = steady.steady_at(p_lin, d, n_in)
                row["n_c_linear"] = ss_lin.n_c
                row["c_eff_linear"] = cavity.scattering_rates(ss_lin, p_lin).c_eff
                try:
                    row["n_m_linear"] = cooling.occupation(ss_lin, p_lin).n_rate
                except KerrcoolError:
                    row["n_m_linear"] = math.nan
        except KerrcoolError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _same_profile(p, n_in, deltas, include_skewness, linear_reference, monkeypatch):
    """Assert equal rows; return them and the number of rows built by the
    scalar row code, for the callers' coverage checks."""
    scalar_rows = []

    def counted(*args):
        scalar_rows.append(args[2])
        return sweeps_profile_row(*args)

    sweeps_profile_row = sweeps._profile_row
    monkeypatch.setattr(sweeps, "_profile_row", counted)
    rows = sweeps.detuning_profile(p, n_in, deltas, include_skewness, linear_reference)
    ref = _scalar_profile(p, n_in, deltas, include_skewness, linear_reference)
    assert len(rows) == len(ref)
    for row, exp in zip(rows, ref):
        assert list(row) == list(exp)
        for key, want in exp.items():
            got = row[key]
            if isinstance(want, float):
                assert isinstance(got, float)
                assert got.hex() == want.hex(), (key, row["detuning_rad_s"], got, want)
            else:
                assert type(got) is type(want) and got == want, (key, got, want)
    return rows, len(scalar_rows)


#: Seeded systems: couplings 1.7-35 kHz, omega_m/kappa 0.02-2 (log), drives
#: 1e-3 to 0.9999999 of bifurcation, both modes, the four column choices.
_SYSTEMS = 16
_rng = np.random.default_rng(9)
_G0_HZ = _rng.permutation(np.geomspace(1.7e3, 35e3, _SYSTEMS))
_OMEGA_FRACS = _rng.permutation(np.geomspace(0.02, 2.0, _SYSTEMS))
_DRIVES = 1.0 - _rng.permutation(np.geomspace(1e-7, 0.999, _SYSTEMS))


class TestArrayProfile:
    @pytest.mark.parametrize("i", range(_SYSTEMS))
    def test_seeded_systems(self, defaults, i, monkeypatch):
        p = sweeps.sideband_variant(defaults.replace(g0=TAU * _G0_HZ[i]), _OMEGA_FRACS[i])
        if i % 2:
            p = p.without_kerr()
        n_in = _DRIVES[i] * steady.bifurcation(p).n_in_bi
        skew, lin = bool(i // 2 % 2), bool(i // 4 % 2)
        # red and blue sidebands: anti-damped rows on the blue side
        deltas = np.linspace(-12.0, 2.0, 61 if skew else 401) * p.omega_m
        rows, scalar = _same_profile(p, n_in, deltas, skew, lin, monkeypatch)
        # below bifurcation every row, anti-damped or not, is an array row
        assert scalar == 0
        assert any(row["error"] for row in rows)

    @pytest.mark.parametrize("skew,lin", [(False, True), (True, False), (True, True)])
    def test_guard_rows(self, defaults, skew, lin, monkeypatch):
        # a strong mechanical Kerr far above bifurcation: bistable rows,
        # parametrically unstable lower-branch rows and anti-damped rows
        p = defaults.replace(kerr=TAU * 8776.9, g0=TAU * 60114.0)
        n_in = 18.58 * steady.bifurcation(p).n_in_bi
        deltas = np.linspace(-4.0, 1.0, 81) * p.kappa
        rows, scalar = _same_profile(p, n_in, deltas, skew, lin, monkeypatch)
        bistable = sum(row.get("n_roots") == 3 for row in rows)
        unstable = sum(row["error"].startswith("parametric instability") for row in rows)
        assert any(row.get("n_roots") == 3 and row["n_c_upper"] != row["n_c_lower"]
                   for row in rows)
        assert any(row["error"].startswith("net mechanical anti-damping") for row in rows)
        assert (unstable > 0) == skew
        assert bistable + unstable <= scalar < len(rows)

    def test_failed_cross_check(self, defaults, crit_drive, monkeypatch):
        # at zero tolerance the anti-Stokes cross-check trips on rounding
        # alone: those rows carry the scalar code's error text
        monkeypatch.setattr(cavity, "rates_agree", lambda g_s, g_opt, g_as: g_s + g_opt == g_as)
        deltas = np.linspace(-12.0, -0.01, 201) * defaults.omega_m
        rows, scalar = _same_profile(defaults, crit_drive, deltas, True, False, monkeypatch)
        tripped = sum(row["error"].startswith("closed-form anti-Stokes rate") for row in rows)
        assert 0 < tripped == scalar < len(rows)

    def test_bistable_drive(self, defaults, crit_drive, monkeypatch):
        deltas = np.linspace(-3.0, 0.5, 401) * defaults.kappa
        rows, scalar = _same_profile(defaults, 3.0 * crit_drive, deltas, False, True,
                                     monkeypatch)
        bistable = sum(row["n_roots"] == 3 for row in rows)
        assert 10 < bistable <= scalar < len(rows)

    @pytest.mark.parametrize("lin", [False, True])
    def test_no_drive(self, defaults, lin, monkeypatch):
        deltas = np.linspace(-12.0, 2.0, 41) * defaults.omega_m
        rows, scalar = _same_profile(defaults, 0.0, deltas, False, lin, monkeypatch)
        assert scalar == 0
        assert all(row["n_m"] == defaults.n_th for row in rows)

    def test_invalid_inputs(self, defaults, crit_drive, monkeypatch):
        deltas = np.linspace(-3.0, -0.1, 9) * defaults.omega_m
        deltas[4] = math.nan
        rows, scalar = _same_profile(defaults, crit_drive, deltas, False, True, monkeypatch)
        assert rows[4]["error"].startswith("detuning must be finite") and scalar == 1
        rows, scalar = _same_profile(defaults, -1.0, deltas[:4], False, True, monkeypatch)
        assert all(row["error"].startswith("n_in must be >= 0") for row in rows)
        assert scalar == 4
