"""Exact slopes and the bracketed roots built on them: the rate and root
derivatives against complex-step and 50-digit mpmath derivatives, the
1-D optima against 40-digit mpmath stationary points, their independence
of the coarse grid, the one-phonon boundary against a bisection, and a
map's boundaries, found from its columns' cells, against it."""
import math

import mpmath
import numpy as np
import pytest

import kerrcool as kc
from kerrcool import cavity, steady, sweeps
from kerrcool.errors import ConvergenceError
from kerrcool.params import CRITICAL_POWER_FRACTION, TAU

#: Drive fractions of the bifurcation flux, omega_m/kappa values, and
#: purities of the optimizer cases.
DRIVES = (1e-2, 0.3, CRITICAL_POWER_FRACTION)
OMEGA_FRACS = (0.02, 0.2, 2.0)
PURITIES = (0.0, 0.9)


def _system(defaults, omega_frac, linear, g0_hz=15e3):
    p = sweeps.sideband_variant(defaults.replace(g0=TAU * g0_hz), omega_frac)
    return p.without_kerr() if linear else p


def _cases(defaults):
    for frac in DRIVES:
        for omega_frac in OMEGA_FRACS:
            for linear in (False, True):
                p = _system(defaults, omega_frac, linear)
                n_in = frac * steady.bifurcation(p).n_in_bi
                for xi in PURITIES:
                    yield p, n_in, xi


# ----------------------------------------------------------------------
# mpmath reference, built from the cubic and the photon spectrum alone

def _mp_lower_root(p, delta, n_in, start):
    """Root of n[(Delta + K_eff n)^2 + kappa^2/4] = kappa n_in by Newton's
    method from the float lower root, at the working precision."""
    k_eff, ka, flux = (mpmath.mpf(x) for x in (kc.effective_kerr(p), p.kappa, n_in))
    n = mpmath.mpf(start)
    for _ in range(100):
        shift = delta + k_eff * n
        step = (n * (shift * shift + ka * ka / 4) - ka * flux) \
            / ((delta + 3 * k_eff * n) * shift + ka * ka / 4)
        n -= step
        if abs(step) <= mpmath.eps * abs(n):
            break
    return n


def _mp_rates(p, delta, n_c):
    """(Gamma_S, Gamma_AS) = g0^2 S_nn[-+omega_m] from the photon spectrum."""
    g0, ka, w, kerr = (mpmath.mpf(x) for x in (p.g0, p.kappa, p.omega_m, p.kerr))
    lam = kerr * n_c
    dt = delta + 2 * lam

    def s_nn(x):
        return n_c * ka * ((-dt + x + lam) ** 2 + ka ** 2 / 4) \
            / ((dt ** 2 - x ** 2 + ka ** 2 / 4 - lam ** 2) ** 2 + ka ** 2 * x ** 2)
    return g0 ** 2 * s_nn(-w), g0 ** 2 * s_nn(w)


def _mp_occupation(p, xi, start):
    """n_m(Delta, n_in) in mpmath."""
    gm, nth = mpmath.mpf(p.gamma_m), mpmath.mpf(p.n_th)

    def n_m(delta, n_in):
        g_s, g_as = _mp_rates(p, delta, _mp_lower_root(p, delta, n_in, start))
        return (gm * nth + (1 - mpmath.mpf(xi)) * g_s) / (gm + g_as - g_s)
    return n_m


def _mp_stationary(fn, x0):
    """Stationary point of fn near x0, in 40 digits."""
    with mpmath.workdps(40):
        return mpmath.findroot(lambda x: mpmath.diff(fn, x), mpmath.mpf(x0), verify=False)


def _rel(a, b):
    return float(abs(a - b) / abs(b))


# ----------------------------------------------------------------------

def _sample_points(defaults, seed, count=8):
    """(p, delta, n_in, n_c) on the lower branch: seeded systems, drives
    1e-4 .. 1 of bifurcation, detunings on the red side."""
    rng = np.random.default_rng(seed)
    for g0_hz in (1.7e3, 35e3):
        for linear in (False, True):
            for _ in range(count):
                p = _system(defaults, rng.uniform(0.02, 2.0), linear, g0_hz)
                n_in = steady.bifurcation(p).n_in_bi * 10.0 ** rng.uniform(-4.0, 0.0)
                delta = -rng.uniform(0.01, 3.0) * p.kappa
                yield p, delta, n_in, steady.lower_root(p, delta, n_in)


class TestRateSlopes:
    def test_against_complex_step(self, defaults):
        h = 1e-30
        for p, delta, n_in, n_c in _sample_points(defaults, seed=31):
            dn_ddelta, dn_dflux = steady.root_slopes(p, delta, n_c)
            for d_delta, d_n in ((1.0, dn_ddelta), (0.0, dn_dflux), (1.0, 0.0), (0.0, 1.0)):
                got = cavity.rate_slopes(p, delta, n_c, d_delta, d_n)
                ref = cavity.rates(p, delta + 1j * h * d_delta, n_c + 1j * h * d_n)
                for rate, slope, step in zip(cavity.rates(p, delta, n_c), got, ref):
                    # the size of the derivative when nothing cancels
                    scale = abs(rate) * (abs(d_delta) / abs(delta) + abs(d_n) / n_c)
                    assert slope == pytest.approx(step.imag / h, rel=1e-10,
                                                  abs=1e-10 * scale)

    def test_arrays_match_floats(self, defaults, crit_drive):
        deltas = np.linspace(-3.0, -0.05, 7) * defaults.kappa
        n_c = steady.lower_branch_array(defaults, deltas, crit_drive)
        dn, _ = steady.root_slopes(defaults, deltas, n_c)
        vec = cavity.rate_slopes(defaults, deltas, n_c, 1.0, dn)
        for i, d in enumerate(deltas):
            dn_i, _ = steady.root_slopes(defaults, float(d), float(n_c[i]))
            scalar = cavity.rate_slopes(defaults, float(d), float(n_c[i]), 1.0, dn_i)
            assert [vec[0][i], vec[1][i]] == list(scalar)


class TestRootSlopes:
    def test_against_mpmath_implicit_derivative(self, defaults):
        for p, delta, n_in, n_c in _sample_points(defaults, seed=32):
            with mpmath.workdps(50):
                k_eff, ka = mpmath.mpf(kc.effective_kerr(p)), mpmath.mpf(p.kappa)
                d, flux = mpmath.mpf(delta), mpmath.mpf(n_in)
                n = _mp_lower_root(p, d, flux, n_c)

                def cubic(n_, d_, f_):
                    return n_ * ((d_ + k_eff * n_) ** 2 + ka * ka / 4) - ka * f_
                df_dn = mpmath.diff(lambda x: cubic(x, d, flux), n)
                ref_delta = -mpmath.diff(lambda x: cubic(n, x, flux), d) / df_dn
                ref_flux = -mpmath.diff(lambda x: cubic(n, d, x), flux) / df_dn
            got_delta, got_flux = steady.root_slopes(p, delta, n_c)
            assert _rel(got_delta, ref_delta) <= 1e-12
            assert _rel(got_flux, ref_flux) <= 1e-12

    def test_occupation_slopes_against_mpmath(self, defaults):
        for p, delta, n_in, n_c in _sample_points(defaults, seed=33, count=3):
            if not math.isfinite(sweeps._occupation_lane(p, delta, n_in)[0]):
                continue
            for xi in PURITIES:
                with mpmath.workdps(50):
                    n_m = _mp_occupation(p, xi, n_c)
                    d, flux = mpmath.mpf(delta), mpmath.mpf(n_in)
                    ref_delta = mpmath.diff(lambda x: n_m(x, flux), d)
                    ref_flux = mpmath.diff(lambda x: n_m(d, x), flux)
                got_delta = sweeps._occupation_lane(p, delta, n_in, xi)[1]
                got_flux = sweeps._occupation_lane(p, delta, n_in, xi, along_flux=True)[1]
                assert _rel(got_delta, ref_delta) <= 1e-11
                assert _rel(got_flux, ref_flux) <= 1e-11

    def test_infeasible_slope_is_nan(self, defaults, crit_drive):
        # blue of resonance the optical anti-damping beats gamma_m
        value, slope = sweeps._occupation_lane(defaults, 0.5 * defaults.kappa, crit_drive)
        assert value == math.inf
        assert math.isnan(slope)


class TestSlopeRootOptima:
    def test_argmin_is_mpmath_stationary_point(self, defaults):
        for p, n_in, xi in _cases(defaults):
            delta, value = sweeps.optimal_detuning(p, n_in, xi)
            n_m = _mp_occupation(p, xi, steady.lower_root(p, delta, n_in))
            ref = _mp_stationary(lambda d: n_m(d, n_in), delta)
            assert _rel(delta, ref) <= 1e-12
            assert value == sweeps._occupation_lane(p, delta, n_in, xi)[0]

    @pytest.mark.parametrize("omega_frac,linear,xi", [
        (0.1, False, 0.0), (0.2, False, 0.9), (0.2, True, 0.0), (1.0, True, 0.9)])
    def test_argmin_independent_of_grid(self, defaults, omega_frac, linear, xi):
        p = _system(defaults, omega_frac, linear)
        n_in = sweeps.equal_drive(p, CRITICAL_POWER_FRACTION)
        found = [sweeps.optimal_detuning(p, n_in, xi, grid_points=m)
                 for m in (101, 401, 2001, 4001)]
        for delta, value in found[:-1]:
            assert _rel(delta, found[-1][0]) <= 1e-14
            assert _rel(value, found[-1][1]) <= 1e-14

    def test_max_damping_is_mpmath_stationary_point(self, defaults, crit_drive):
        delta, c_eff = sweeps.max_damping_point(defaults, crit_drive)
        start = steady.lower_root(defaults, delta, crit_drive)

        def gamma_opt(d):
            g_s, g_as = _mp_rates(defaults, d, _mp_lower_root(defaults, d, crit_drive, start))
            return g_as - g_s
        assert _rel(delta, _mp_stationary(gamma_opt, delta)) <= 1e-12
        (_, g_opt), _ = sweeps._rates_and_slopes(defaults, delta, crit_drive, along_flux=False)
        assert c_eff == g_opt / defaults.gamma_m

    def test_edge_minimum_keeps_grid_point(self, defaults, crit_drive):
        # a window that stops short of the optimum: n_m falls toward its
        # right edge, where the slope never changes sign
        bi = steady.bifurcation(defaults)
        window = (3.0 * bi.delta_bi, 2.0 * bi.delta_bi)
        delta, value = sweeps.optimal_detuning(defaults, crit_drive, window=window,
                                               grid_points=101)
        assert delta == window[1]
        assert value == sweeps._occupation_lane(defaults, delta, crit_drive)[0]

    def test_flux_step_lands_on_the_cap(self, defaults):
        # at the cap dn_m/dn_in < 0: the flux bracket has no sign change
        _, n_in, _ = sweeps.optimize_operating_point(defaults)
        assert n_in == CRITICAL_POWER_FRACTION * steady.bifurcation(defaults).n_in_bi

    @pytest.mark.parametrize("case", ("defaults", "cap 0.7", "xi 0.9",
                                      "linear 15 kHz", "n_th 0"))
    def test_flux_optimum_is_kkt_point(self, defaults, case):
        # F(n_in) = min over Delta of n_m has the envelope slope dn_m/dn_in
        # at the optimal detuning: it points out of the flux window at a
        # bound optimum and vanishes at an interior one
        p, cap, xi, n_in_bi = defaults, CRITICAL_POWER_FRACTION, 0.0, None
        if case == "cap 0.7":
            cap = 0.7
        elif case == "xi 0.9":
            xi = 0.9
        elif case == "linear 15 kHz":
            p = defaults.replace(g0=TAU * 15e3).without_kerr()
            n_in_bi = steady.bifurcation(p).n_in_bi
        elif case == "n_th 0":
            p = sweeps.sideband_variant(defaults.replace(g0=TAU * 15e3), 0.1).replace(n_th=0.0)
        delta, n_in, _ = sweeps.optimize_operating_point(p, cap, xi, n_in_bi)
        n_in_bi = n_in_bi or steady.bifurcation(p).n_in_bi
        n_m, slope = sweeps._occupation_lane(p, delta, n_in, xi, along_flux=True)
        if n_in == cap * n_in_bi:
            assert slope < 0.0
        elif n_in == 1e-3 * n_in_bi:
            assert slope > 0.0
        else:
            assert abs(slope) * n_in / n_m <= 1e-8


def _exhaustive_flux_optimum(p, cap, xi, n_in_bi):
    """The flux search with the exact envelope at all 64 fluxes: 64 full
    `optimal_detuning` calls fed to `_grid_slope_min`."""
    fluxes = np.geomspace(1e-3, cap, sweeps.POWER_GRID_POINTS) * n_in_bi
    optima = {}

    def envelope(flux):
        if flux not in optima:
            optima[flux] = sweeps.optimal_detuning(p, flux, xi)
        return optima[flux]

    n_in, _ = sweeps._grid_slope_min(
        np.array([envelope(float(f))[1] for f in fluxes]), fluxes, lambda f: (
            envelope(f)[1],
            sweeps._occupation_lane(p, envelope(f)[0], f, xi, along_flux=True)[1]))
    return envelope(n_in)[0], n_in


#: Seeded systems of the two-level flux search: couplings 1.7-35 kHz and
#: omega_m/kappa 0.02-0.5 (log-spaced, endpoints included, shuffled),
#: cycling through both caps, both purities and both modes.
_FLUX_SYSTEMS = 32
_rng = np.random.default_rng(2024)
_FLUX_G0_HZ = _rng.permutation(np.geomspace(1.7e3, 35e3, _FLUX_SYSTEMS))
_FLUX_OMEGA_FRACS = _rng.permutation(np.geomspace(0.02, 0.5, _FLUX_SYSTEMS))


class TestTwoLevelFluxSearch:
    @pytest.mark.parametrize("i", range(_FLUX_SYSTEMS + 1))
    def test_equals_exhaustive_scan(self, defaults, i):
        # the coarse envelope only picks the flux cell; where it picks the
        # exhaustive scan's cell the exact values, bracket and slopes are
        # the same, so the result is too, bit for bit
        if i == _FLUX_SYSTEMS:
            # n_th = 0: an edge optimum at the lowest flux of the grid
            p = sweeps.sideband_variant(defaults.replace(g0=TAU * 15e3), 0.1).replace(n_th=0.0)
            cap, xi = CRITICAL_POWER_FRACTION, 0.0
        else:
            p = _system(defaults, _FLUX_OMEGA_FRACS[i], bool(i // 4 % 2), _FLUX_G0_HZ[i])
            cap = (0.7, CRITICAL_POWER_FRACTION)[i % 2]
            xi = PURITIES[i // 2 % 2]
        n_in_bi = steady.bifurcation(p).n_in_bi
        delta, n_in, _ = sweeps.optimize_operating_point(p, cap, xi, n_in_bi)
        assert (delta, n_in) == _exhaustive_flux_optimum(p, cap, xi, n_in_bi)


class TestOnePhononBoundary:
    @pytest.mark.parametrize("mode", list(sweeps.Mode))
    def test_against_bisection(self, defaults, mode):
        g0, bracket = TAU * 15e3, (0.05, 0.35)
        onset = sweeps.ground_state_onset_omega(defaults, g0, mode, bracket=bracket)
        pb = defaults.replace(g0=g0)

        def above_one(frac):
            pv = sweeps.sideband_variant(pb, frac)
            n_in = sweeps.equal_drive(pv, CRITICAL_POWER_FRACTION)
            target = pv.without_kerr() if mode is sweeps.Mode.LINEAR_COMPARISON else pv
            return sweeps.optimal_detuning(
                target, n_in, grid_points=sweeps.PROFILE_POINTS // 2)[1] > 1.0

        lo, hi = bracket
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if above_one(mid) else (lo, mid)
        assert onset == pytest.approx(0.5 * (lo + hi), rel=1e-12, abs=0.0)

    # the map's boundaries, one per coupling column, from the column's cells

    #: omega_frac axis of the map tests: dyadic, so the ascending and the
    #: descending axis hold the same cells bit for bit
    OMEGA_AXIS = (0.0625, 0.375, 6)

    @staticmethod
    def _couplings(mode):
        """Seeded g0/2pi axis (Hz) whose columns cross one phonon inside
        `OMEGA_AXIS`: from 16-20 kHz to 35-50 kHz, three log points."""
        rng = np.random.default_rng(27 + list(sweeps.Mode).index(mode))
        return float(rng.uniform(16e3, 20e3)), float(rng.uniform(35e3, 50e3)), 3, "log"

    def _map(self, defaults, mode, g0_axis, omega_axis):
        spec = sweeps.SweepSpec(sweeps.SweepKind.GROUND_STATE_MAP,
                                {"g0_hz": sweeps.AxisRange(*g0_axis),
                                 "omega_frac": sweeps.AxisRange(*omega_axis)}, mode)
        rows = sweeps.run_sweep(spec, defaults)
        cells = [r for r in rows if r["kind"] == "map"]
        return [r for r in rows if r["kind"] == "boundary"], cells

    @staticmethod
    def _crossing_pair(cells, g0_hz):
        """The first pair of a column's cells, ascending in omega_frac, where
        n_m goes from above one phonon to below it."""
        column = sorted((c["omega_frac"], c["n_m"]) for c in cells if c["g0_hz"] == g0_hz)
        return next((a, b) for (a, na), (b, nb) in zip(column, column[1:])
                    if na > 1.0 >= nb)

    @staticmethod
    def _counted(monkeypatch):
        """The omega_frac of every `_map_occupation` call, and the bracket
        and iteration count of every Brent root on an omega_frac bracket
        (the detuning searches inside a cell run their own), in call order."""
        fracs, iterations = [], []
        occupation, brent = sweeps._map_occupation, sweeps._brent

        def counted_occupation(p, frac, *args):
            fracs.append(frac)
            return occupation(p, frac, *args)

        def counted_brent(f, xa, xb, *args):
            root, count = brent(f, xa, xb, *args)
            if 0.0 < xa < xb < 1.0:
                iterations.append((xa, xb, count))
            return root, count

        monkeypatch.setattr(sweeps, "_map_occupation", counted_occupation)
        monkeypatch.setattr(sweeps, "_brent", counted_brent)
        return fracs, iterations

    @pytest.mark.parametrize("mode", list(sweeps.Mode))
    def test_map_boundary_inside_crossing_pair(self, defaults, mode):
        boundaries, cells = self._map(defaults, mode, self._couplings(mode), self.OMEGA_AXIS)
        assert len(boundaries) == 3 and not any(r["error"] for r in boundaries)
        for row in boundaries:
            a, b = self._crossing_pair(cells, row["g0_hz"])
            assert a < row["omega_frac"] < b

    @pytest.mark.parametrize("mode", list(sweeps.Mode))
    def test_map_boundary_equals_full_window_root(self, defaults, mode):
        boundaries, _ = self._map(defaults, mode, self._couplings(mode), self.OMEGA_AXIS)
        window = self.OMEGA_AXIS[:2]
        for row in boundaries:
            onset = sweeps.ground_state_onset_omega(defaults, TAU * row["g0_hz"], mode,
                                                    bracket=window)
            assert row["omega_frac"] == pytest.approx(onset, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mode", list(sweeps.Mode))
    def test_descending_axis_gives_the_same_boundary(self, defaults, mode):
        start, stop, count = self.OMEGA_AXIS
        up, up_cells = self._map(defaults, mode, self._couplings(mode), (start, stop, count))
        down, down_cells = self._map(defaults, mode, self._couplings(mode), (stop, start, count))
        # the same cells, listed in the other order, and the same boundaries
        assert [c["omega_frac"] for c in down_cells[:count]] == \
            [c["omega_frac"] for c in up_cells[:count]][::-1]
        assert sorted(map(repr, down_cells)) == sorted(map(repr, up_cells))
        assert down == up

    @pytest.mark.parametrize("mode", list(sweeps.Mode))
    def test_non_crossing_column_evaluates_each_cell_once(self, defaults, mode, monkeypatch):
        # at 2 kHz the columns stay above one phonon across the window
        fracs, iterations = self._counted(monkeypatch)
        boundaries, cells = self._map(defaults, mode, (2e3, 2.5e3, 2), self.OMEGA_AXIS)
        assert all(r["error"].startswith("occupation does not cross one phonon")
                   for r in boundaries)
        assert fracs == [c["omega_frac"] for c in cells]
        assert iterations == []

    @pytest.mark.parametrize("mode", list(sweeps.Mode))
    def test_crossing_column_evaluates_cells_then_brent_iterates(self, defaults, mode,
                                                                 monkeypatch):
        fracs, iterations = self._counted(monkeypatch)
        boundaries, cells = self._map(defaults, mode, self._couplings(mode), self.OMEGA_AXIS)
        count = self.OMEGA_AXIS[2]
        axis = [c["omega_frac"] for c in cells[:count]]
        assert len(iterations) == len(boundaries)
        for row, (xa, xb, steps) in zip(boundaries, iterations):
            # the column's cells, then Brent in their crossing pair with one
            # call per iterate: the last iteration stops without one, and
            # no end is probed again
            assert fracs[:count] == axis
            brent, fracs = fracs[count:count + steps - 1], fracs[count + steps - 1:]
            assert (xa, xb) == self._crossing_pair(cells, row["g0_hz"])
            assert brent and all(xa < x < xb for x in brent)
        assert fracs == []

    @pytest.mark.parametrize("mode", list(sweeps.Mode))
    @pytest.mark.parametrize("end", [0, -1])
    @pytest.mark.parametrize("error", [ConvergenceError("probe failed"),
                                       RuntimeError("boom")])
    def test_failed_end_cell_fails_the_boundary(self, defaults, mode, end, error, monkeypatch):
        failing = self.OMEGA_AXIS[:2][end]
        occupation = sweeps._map_occupation

        def fail_at_end(p, frac, *args):
            if frac == failing:
                raise error
            return occupation(p, frac, *args)

        monkeypatch.setattr(sweeps, "_map_occupation", fail_at_end)
        boundaries, cells = self._map(defaults, mode, self._couplings(mode), self.OMEGA_AXIS)
        failed = [c["error"] for c in cells if c["omega_frac"] == failing]
        assert len(failed) == 3 and failed[0]
        assert [r["error"] for r in boundaries] == failed
        assert not any("omega_frac" in r for r in boundaries)

    def test_refused_coupling_fails_its_column(self, defaults):
        # the column's system is built once; a coupling it refuses fails
        # each row of that column, and the sweep goes on
        boundaries, cells = self._map(defaults, sweeps.Mode.NONLINEAR, (-1e4, 2e4, 3),
                                      self.OMEGA_AXIS)
        refused = [r["error"] for r in cells + boundaries if r["g0_hz"] < 0.0]
        assert len(refused) == self.OMEGA_AXIS[2] + 1
        assert set(refused) == {f"g0 must be >= 0 and finite, got {TAU * -1e4!r}"}
        assert not any(r["error"] for r in cells if r["g0_hz"] > 0.0)
        assert "omega_frac" in boundaries[-1]

    @pytest.mark.parametrize("mode", list(sweeps.Mode))
    def test_failed_inner_cell_is_left_out(self, defaults, mode, monkeypatch):
        occupation = sweeps._map_occupation

        def fail_inside(p, frac, *args):
            if frac == 0.25:
                raise ConvergenceError("probe failed")
            return occupation(p, frac, *args)

        monkeypatch.setattr(sweeps, "_map_occupation", fail_inside)
        boundaries, cells = self._map(defaults, mode, self._couplings(mode), self.OMEGA_AXIS)
        assert sum(bool(c["error"]) for c in cells) == 3
        monkeypatch.setattr(sweeps, "_map_occupation", occupation)
        for row in boundaries:
            onset = sweeps.ground_state_onset_omega(defaults, TAU * row["g0_hz"], mode,
                                                    bracket=self.OMEGA_AXIS[:2])
            assert row["omega_frac"] == pytest.approx(onset, rel=1e-12, abs=0.0)


# ----------------------------------------------------------------------
# the ranking grids against searches that rank on polished grids

def _polished_profile(p, grid, n_in, xi=0.0):
    """(n_m, Gamma_opt) on `grid` from the polished `lower_branch_array`,
    n_m = +inf where infeasible."""
    n_c = steady.lower_branch_array(p, grid, n_in)
    g_s, g_opt = cavity.rates(p, grid, n_c)
    denom = p.gamma_m + g_opt
    with np.errstate(all="ignore"):
        n_m = (p.gamma_m * p.n_th + (1.0 - xi) * g_s) / denom
    bad = (denom <= 0.0) | ~np.isfinite(n_m) | (n_m <= 0.0)
    return np.where(bad, np.inf, n_m), g_opt


def _polished_grid_min(vals, grid, lane):
    """The grid search on polished samples: the least sample picks the
    bracket, and a kept grid point reports its sampled value."""
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        return math.nan, math.inf

    def slope(x):
        return lane(x)[1]

    a = float(grid[max(0, i - 1)])
    b = float(grid[min(len(grid) - 1, i + 1)])
    x = sweeps._bracketed_root(slope, a, b, slope(a), slope(b))
    fx = math.inf if x is None else lane(x)[0]
    if vals[i] < fx:
        return float(grid[i]), float(vals[i])
    return x, float(fx)


def _polished_optimal_detuning(p, n_in, xi=0.0, window=None,
                               grid_points=sweeps.PROFILE_POINTS):
    grid = np.linspace(*(window or sweeps.detuning_window(p)), grid_points)
    return _polished_grid_min(_polished_profile(p, grid, n_in, xi)[0], grid,
                              lambda d: sweeps._occupation_lane(p, d, n_in, xi))


def _polished_max_damping(p, n_in):
    grid = np.linspace(*sweeps.detuning_window(p), sweeps.PROFILE_POINTS)

    def neg_c(x):
        (_, g), (_, dg) = sweeps._rates_and_slopes(p, x, n_in, along_flux=False)
        return -g / p.gamma_m, -dg / p.gamma_m

    d, negc = _polished_grid_min(-_polished_profile(p, grid, n_in)[1] / p.gamma_m, grid,
                                 neg_c)
    return d, -negc


def _polished_operating_point(p, cap, xi, n_in_bi):
    """The two-level flux search with polished grids at both levels."""
    fluxes = np.geomspace(1e-3, cap, sweeps.POWER_GRID_POINTS) * n_in_bi
    coarse = np.linspace(*sweeps.detuning_window(p), sweeps.PROFILE_POINTS // 8)
    cell = int(np.argmin([np.min(_polished_profile(p, coarse, f, xi)[0]) for f in fluxes]))
    optima = {}

    def envelope(flux):
        if flux not in optima:
            optima[flux] = _polished_optimal_detuning(p, flux, xi)
        return optima[flux]

    vals = np.full(len(fluxes), np.inf)
    for j in range(max(0, cell - 1), min(len(fluxes), cell + 2)):
        vals[j] = envelope(float(fluxes[j]))[1]
    n_in, _ = _polished_grid_min(vals, fluxes, lambda f: (
        envelope(f)[1],
        sweeps._occupation_lane(p, envelope(f)[0], f, xi, along_flux=True)[1]))
    return envelope(n_in)[0], n_in


#: Drive fractions of each system's own bifurcation flux: sub-critical,
#: 1e-7, 1e-9 and 1e-12 below critical, and exactly critical.
_RANK_DRIVES = (0.3, 1.0 - 1e-7, 1.0 - 1e-9, 1.0 - 1e-12, 1.0)
#: Seeded systems of the ranking tests: couplings 1.7-50 kHz and
#: omega_m/kappa 0.02-2 (log-uniform), alternating modes.
_RANK_SYSTEMS = 10
_rank_rng = np.random.default_rng(11)
_RANK_G0_HZ = 10.0 ** _rank_rng.uniform(np.log10(1.7e3), np.log10(50e3), _RANK_SYSTEMS)
_RANK_OMEGA_FRACS = 10.0 ** _rank_rng.uniform(np.log10(0.02), np.log10(2.0), _RANK_SYSTEMS)


def _rank_system(defaults, i):
    return _system(defaults, _RANK_OMEGA_FRACS[i], bool(i % 2), _RANK_G0_HZ[i])


class TestUnpolishedRanking:
    # the grids only rank; every reported number comes from the scalar
    # path, so the searches equal their polished-grid twins bit for bit

    @pytest.mark.parametrize("i", range(_RANK_SYSTEMS))
    def test_optimal_detuning_equals_polished_search(self, defaults, i):
        p = _rank_system(defaults, i)
        bi = steady.bifurcation(p)
        cusp = (1.01 * bi.delta_bi, 0.99 * bi.delta_bi)
        for k, frac in enumerate(_RANK_DRIVES):
            n_in = frac * bi.n_in_bi
            xi = PURITIES[(i + k) % 2]
            for window, points in ((None, sweeps.PROFILE_POINTS),
                                   (cusp, (4001, 2000, 301)[(i + k) % 3]),
                                   (None, sweeps.PROFILE_POINTS // 2)):
                found = sweeps.optimal_detuning(p, n_in, xi, window=window,
                                                grid_points=points)
                assert found == _polished_optimal_detuning(p, n_in, xi, window, points)

    @pytest.mark.parametrize("i", range(_RANK_SYSTEMS))
    def test_max_damping_equals_polished_search(self, defaults, i):
        p = _rank_system(defaults, i)
        for frac in _RANK_DRIVES:
            n_in = frac * steady.bifurcation(p).n_in_bi
            assert sweeps.max_damping_point(p, n_in) == _polished_max_damping(p, n_in)

    @pytest.mark.parametrize("i", range(4))
    def test_operating_point_equals_polished_search(self, defaults, i):
        p = _rank_system(defaults, i)
        n_in_bi = steady.bifurcation(p).n_in_bi
        cap, xi = (0.7, CRITICAL_POWER_FRACTION)[i % 2], PURITIES[i // 2 % 2]
        delta, n_in, _ = sweeps.optimize_operating_point(p, cap, xi, n_in_bi)
        assert (delta, n_in) == _polished_operating_point(p, cap, xi, n_in_bi)

    def test_edge_minimum_reports_exact_value(self, defaults):
        # n_th = 0: the flux optimum sits at the lowest flux of the grid, and
        # there the occupation falls toward the red edge of the detuning
        # window, so both levels keep a grid point
        p = sweeps.sideband_variant(defaults.replace(g0=TAU * 15e3), 0.1).replace(n_th=0.0)
        n_in_bi = steady.bifurcation(p).n_in_bi
        delta, n_in, _ = sweeps.optimize_operating_point(p)
        assert (delta, n_in) == _polished_operating_point(
            p, CRITICAL_POWER_FRACTION, 0.0, n_in_bi)
        assert n_in == 1e-3 * n_in_bi
        assert delta == sweeps.detuning_window(p)[0]
        found = sweeps.optimal_detuning(p, n_in)
        assert found == _polished_optimal_detuning(p, n_in)
        assert found == (delta, sweeps._occupation_lane(p, delta, n_in)[0])
