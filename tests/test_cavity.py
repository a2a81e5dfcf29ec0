import math

import mpmath
import numpy as np
import pytest

import kerrcool as kc
from kerrcool import sweeps
from kerrcool.cavity import (PoleRegion, SkewnessWorkspace, Spectrum, bare_susceptibility_inv,
                             photon_spectrum_values, skewness_grid, spectrum_denominator)
from kerrcool.errors import ConfigError, DegenerateSpectrumError, InstabilityError
from kerrcool.params import TAU
from kerrcool.steady import Branch, state_for_root


class TestPhotonSpectrum:
    def test_linear_limit_is_lorentzian(self, defaults, crit_drive):
        p = defaults.without_kerr().replace(g0=0.0)
        delta = -0.7 * p.kappa
        ss = kc.steady_at(p, delta, crit_drive)
        grid = np.linspace(-3 * p.kappa, 3 * p.kappa, 1001)
        spec = kc.photon_spectrum(ss, p, grid)
        expected = ss.n_c * p.kappa / ((grid + delta) ** 2 + p.kappa ** 2 / 4.0)
        assert spec.values == pytest.approx(expected, rel=1e-12)
        # symmetric about -delta
        mirrored = ss.n_c * p.kappa / ((-(grid - 2 * (-delta)) + delta) ** 2 + p.kappa ** 2 / 4)
        assert spec.values == pytest.approx(mirrored, rel=1e-9)

    def test_single_asymmetric_line_near_cusp(self, defaults, crit_drive, crit_state):
        grid = np.linspace(-3 * defaults.omega_m, 3 * defaults.omega_m, 4001)
        spec = kc.photon_spectrum(crit_state, defaults, grid)
        peaks = np.flatnonzero((spec.values[1:-1] > spec.values[:-2])
                               & (spec.values[1:-1] > spec.values[2:]))
        assert len(peaks) == 1
        # asymmetric: positive-frequency flank carries more weight
        assert spec.values[grid > 0].sum() > spec.values[grid < 0].sum()

    def test_two_peaks_in_split_frequency_region(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -0.35 * defaults.kappa, crit_drive)
        poles = kc.cavity_poles(ss, defaults)
        assert poles.region is PoleRegion.SPLIT_FREQUENCIES
        grid = np.linspace(-2.5 * defaults.kappa, 2.5 * defaults.kappa, 20001)
        spec = kc.photon_spectrum(ss, defaults, grid)
        peaks = np.flatnonzero((spec.values[1:-1] > spec.values[:-2])
                               & (spec.values[1:-1] > spec.values[2:]))
        assert len(peaks) == 2
        locs = sorted(grid[peaks + 1])
        expect = sorted([poles.poles[0].real, poles.poles[1].real])
        # peaks sit near the pole frequencies; the kappa/2-wide lines and
        # the asymmetric numerator pull them by a few linewidth fractions
        assert locs == pytest.approx(expect, rel=0.15)

    def test_unstable_point_rejected(self, defaults):
        # a middle-branch root is parametrically unstable
        bi = kc.bifurcation(defaults)
        roots = kc.photon_branches(defaults, -1.4 * defaults.kappa, 2.0 * bi.n_in_bi)
        middle = state_for_root(defaults, -1.4 * defaults.kappa, 2.0 * bi.n_in_bi,
                                roots[1][0])
        with pytest.raises(InstabilityError):
            kc.photon_spectrum(middle, defaults, np.linspace(-1e6, 1e6, 11))

    def test_sign_law(self, defaults, crit_drive):
        # S_nn[W] - S_nn[-W] has the sign of -(Delta + |Lambda|) for W > 0
        rng = np.random.default_rng(21)
        omegas = np.linspace(1e-3 * defaults.kappa, 10 * defaults.kappa, 300)
        for _ in range(40):
            d = -rng.uniform(0.05, 2.5) * defaults.kappa
            f = rng.uniform(1e-3, 1.0) * crit_drive
            ss = kc.steady_at(defaults, d, f)
            diff = (photon_spectrum_values(omegas, ss, defaults)
                    - photon_spectrum_values(-omegas, ss, defaults))
            sign = -math.copysign(1.0, d + ss.lambda_abs)
            assert np.all(np.sign(diff) == sign)

    def test_denominator_factors_into_pole_moduli(self, defaults, crit_drive):
        rng = np.random.default_rng(22)
        omegas = np.linspace(-5 * defaults.kappa, 5 * defaults.kappa, 101)
        for _ in range(30):
            d = -rng.uniform(0.05, 2.5) * defaults.kappa
            ss = kc.steady_at(defaults, d, rng.uniform(1e-3, 1.0) * crit_drive)
            poles = kc.cavity_poles(ss, defaults).poles
            product = (np.abs(omegas - poles[0]) ** 2) * (np.abs(omegas - poles[1]) ** 2)
            assert spectrum_denominator(omegas, ss, defaults) == pytest.approx(
                product, rel=1e-10)


class TestDrivenSusceptibility:
    OMEGAS_KAPPA = np.array([-3.0, -1.0, -0.2, 0.0, 0.3, 1.0, 4.0])

    def test_modulus_over_spectrum_denominator(self, defaults, crit_drive):
        # chi_d = (kappa/2 - i(w - D~)) / (kappa^2/4 + D~^2 - L^2 - w^2 - i kappa w),
        # so |chi_d|^2 times the quartic denominator is (D~ - w)^2 + kappa^2/4
        rng = np.random.default_rng(25)
        omegas = self.OMEGAS_KAPPA * defaults.kappa
        for d in (-0.3, -0.8667, -2.0):
            for _ in range(10):
                ss = kc.steady_at(defaults, d * defaults.kappa,
                                  rng.uniform(1e-3, 1.0) * crit_drive)
                chi = kc.driven_susceptibility(omegas, ss, defaults)
                lhs = np.abs(chi) ** 2 * spectrum_denominator(omegas, ss, defaults)
                rhs = (ss.delta_tilde - omegas) ** 2 + defaults.kappa ** 2 / 4.0
                assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_bare_susceptibility_without_lambda(self, defaults, crit_drive):
        p = defaults.without_kerr()
        omegas = self.OMEGAS_KAPPA * p.kappa
        for d in (-0.3, -1.0):
            ss = kc.steady_at(p, d * p.kappa, crit_drive)
            assert ss.lambda_abs == 0.0
            bare = 1.0 / bare_susceptibility_inv(omegas, ss.delta_tilde, p.kappa)
            assert np.array_equal(kc.driven_susceptibility(omegas, ss, p), bare)


class TestCavityPoles:
    def test_linear_limit(self, defaults, crit_drive):
        p = defaults.without_kerr().replace(g0=0.0)
        delta = -1.3 * p.kappa
        ss = kc.steady_at(p, delta, crit_drive)
        poles = kc.cavity_poles(ss, p)
        assert poles.region is PoleRegion.SPLIT_FREQUENCIES
        res = sorted(w.real for w in poles.poles)
        assert res == pytest.approx([-abs(delta), abs(delta)], rel=1e-12)
        assert all(w.imag == pytest.approx(-p.kappa / 2, rel=1e-12) for w in poles.poles)

    def test_exceptional_point_label(self, defaults, crit_drive):
        # synthesize a state with Delta = -|Lambda| exactly
        ss = kc.steady_at(defaults, -defaults.kappa, crit_drive)
        delta = -ss.lambda_abs
        forced = state_for_root(defaults, delta, crit_drive, ss.n_c, Branch.MONOSTABLE)
        poles = kc.cavity_poles(forced, defaults)
        assert poles.region is PoleRegion.EXCEPTIONAL_POINT

    def test_split_decay_region_between_eps(self, defaults, crit_drive):
        bi = kc.bifurcation(defaults)
        ss = kc.steady_at(defaults, bi.delta_bi, crit_drive)
        poles = kc.cavity_poles(ss, defaults)
        assert poles.region is PoleRegion.SPLIT_DECAYS
        assert poles.poles[0].real == pytest.approx(poles.poles[1].real, abs=1e-9)
        assert all(w.imag < 0 for w in poles.poles)

    def test_decay_extremum_near_cusp(self, defaults, crit_drive, crit_state):
        # at the 1e-7-below-critical drive the cube-root scaling leaves a
        # few-1e-3 residual in n_c/Delta = -2/(3K); exact at the cusp drive
        poles = kc.cavity_poles(crit_state, defaults)
        assert poles.at_decay_extremum
        assert 1e-3 < poles.decay_extremum_residual < 1e-2
        bi = kc.bifurcation(defaults)
        exact = kc.steady_at(defaults, bi.delta_bi, bi.n_in_bi)
        assert kc.cavity_poles(exact, defaults).decay_extremum_residual < 1e-3

    def test_far_detuned_not_extremum(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -2.5 * defaults.kappa, crit_drive)
        assert not kc.cavity_poles(ss, defaults).at_decay_extremum


#: Drive fractions of the bifurcation flux at which the exceptional points
#: are pinned, from far below to far above bifurcation.
EP_DRIVES = (1e-6, 1e-3, 0.05, 0.5, 1.0 - 1e-7, 1.0, 1.5, 3.0, 10.0)
#: Bound on the relative gap of an exceptional point from the 50-digit
#: root; the largest seen on 150 seeded systems at the `EP_DRIVES` is 5.2e-16.
EP_RTOL = 2e-15


def _ep_systems(defaults, count=24):
    """The default system, then seeded nonlinear systems: g0/2pi 1.7-50 kHz
    and omega_m/kappa 0.02-2, log-uniform."""
    rng = np.random.default_rng(5)
    g0_hz = 10.0 ** rng.uniform(math.log10(1.7e3), math.log10(50e3), count)
    omega_fracs = 10.0 ** rng.uniform(math.log10(0.02), math.log10(2.0), count)
    return [defaults] + [sweeps.sideband_variant(defaults.replace(g0=TAU * g), w)
                         for g, w in zip(g0_hz, omega_fracs)]


def _check_against_mpmath(p, n_in):
    """Assert `exceptional_points` at (p, n_in) against 50-digit roots:
    each m-cubic (K_eff - mK)^2 n^3 + (kappa^2/4) n - kappa n_in = 0 by
    Newton's method from n = 4 n_in / kappa, where it is convex and
    increasing, and the photon cubic at Delta* = -mK n* by `polyroots`.  A
    point inside the window is reported, to `EP_RTOL`, exactly where n* is
    the lowest real root.  Returns, per point, whether it was dropped for
    lying off the lowest root."""
    found = kc.exceptional_points(p, n_in)
    off_branch = []
    with mpmath.workdps(50):
        kerr, kappa, flux = mpmath.mpf(p.kerr), mpmath.mpf(p.kappa), mpmath.mpf(n_in)
        om, gm = mpmath.mpf(p.omega_m), mpmath.mpf(p.gamma_m)
        k_eff = kerr + 2 * mpmath.mpf(p.g0) ** 2 * om / (om ** 2 + gm ** 2 / 4)
        for m, value in zip((1, 3), found):
            a, c = (k_eff - m * kerr) ** 2, kappa ** 2 / 4
            n = 4 * flux / kappa
            for _ in range(200):
                step = (a * n ** 3 + c * n - kappa * flux) / (3 * a * n ** 2 + c)
                n -= step
                if abs(step) <= mpmath.mpf(10) ** -45 * n:
                    break
            delta = -m * kerr * n
            roots = mpmath.polyroots([k_eff ** 2, 2 * delta * k_eff, delta ** 2 + c,
                                      -kappa * flux], maxsteps=200, extraprec=200)
            lowest = min(mpmath.re(r) for r in roots
                         if abs(mpmath.im(r)) <= mpmath.mpf(10) ** -30 * abs(r))
            on_branch = abs(lowest - n) <= mpmath.mpf(10) ** -20 * n
            in_window = -10 * kappa < delta < -1e-6 * kappa
            if on_branch and in_window:
                assert value is not None and abs(value - delta) <= EP_RTOL * abs(delta)
            else:
                assert value is None
            off_branch.append(in_window and not on_branch)
    return off_branch


class TestExceptionalPoints:
    def test_bracket_bifurcation_detuning(self, defaults, crit_drive):
        ep_minus, ep_plus = kc.exceptional_points(defaults, crit_drive)
        delta_bi = kc.bifurcation(defaults).delta_bi
        assert ep_plus < delta_bi < ep_minus < 0

    def test_self_consistency_residual(self, defaults, crit_drive):
        ep_minus, ep_plus = kc.exceptional_points(defaults, crit_drive)
        for delta, mult in ((ep_minus, 1.0), (ep_plus, 3.0)):
            n_c = kc.photon_branches(defaults, delta, crit_drive)[0][0]
            assert abs(delta + mult * defaults.kerr * n_c) < 1e-12 * defaults.kappa

    def test_small_kerr_eps_collapse_to_resonance(self, defaults, crit_drive):
        p = defaults.replace(kerr=TAU * 10.0, g0=0.0)
        ep_minus, ep_plus = kc.exceptional_points(p, crit_drive)
        assert -1e-3 * p.kappa < ep_plus < 0
        assert -1e-3 * p.kappa < ep_minus < 0

    def test_missing_ep_reported_as_none(self, defaults):
        # vanishing drive: |Lambda| -> 0 and both points sit closer to
        # resonance than the window's -1e-6 kappa
        ep_minus, ep_plus = kc.exceptional_points(defaults, 1e-12)
        assert ep_minus is None and ep_plus is None

    @pytest.mark.parametrize("frac", EP_DRIVES)
    def test_seeded_against_50_digits(self, defaults, frac):
        for p in _ep_systems(defaults):
            _check_against_mpmath(p, frac * kc.bifurcation(p).n_in_bi)

    def test_above_bifurcation_none_is_off_the_lowest_root(self, defaults):
        # a None inside the window must be a point whose root is not the
        # lowest of the photon cubic; at 1.5 times the bifurcation drive
        # the -|Lambda| point of most seeded systems is one
        systems = _ep_systems(defaults)
        off_branch = sum(sum(_check_against_mpmath(p, 1.5 * kc.bifurcation(p).n_in_bi))
                         for p in systems)
        assert off_branch >= len(systems) // 2

    @pytest.mark.parametrize("g0", (0.0, 1e-6))
    def test_vanishing_mechanical_kerr(self, defaults, g0):
        # at g0 = 0 the m = 1 cubic is linear: n* = 4 n_in / kappa
        p = defaults.replace(g0=g0)
        for frac in EP_DRIVES:
            n_in = frac * kc.bifurcation(p).n_in_bi
            _check_against_mpmath(p, n_in)
            ep_minus = kc.exceptional_points(p, n_in)[0]
            if g0 == 0.0 and ep_minus is not None:
                assert ep_minus == -p.kerr * (4.0 * n_in / p.kappa)

    def test_drive_checked(self, defaults):
        for n_in in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="n_in must be >= 0 and finite"):
                kc.exceptional_points(defaults, n_in)
        # the largest drive whose resolvent stays finite at zero detuning
        bound = 1.3e154 / (13.5 * defaults.kappa * kc.effective_kerr(defaults))
        assert kc.exceptional_points(defaults, 0.5 * bound) == (None, None)
        with pytest.raises(ConfigError, match="n_in must keep the photon cubic finite"):
            kc.exceptional_points(defaults, 2.0 * bound)


class TestSkewness:
    def test_value_symmetric_spectrum_is_zero(self, defaults):
        # a linear ramp has a value distribution symmetric about its mean
        grid = np.linspace(-1.0, 1.0, 1001)
        spec = Spectrum(grid=grid, values=np.linspace(0.0, 2.0, 1001))
        assert kc.skewness(spec) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_spectrum_rejected(self):
        grid = np.linspace(-1.0, 1.0, 11)
        with pytest.raises(ValueError):
            kc.skewness(Spectrum(grid=grid, values=np.ones(11)))

    def test_linear_baseline(self, defaults, crit_drive):
        p = defaults.without_kerr()
        grid = skewness_grid(defaults)
        for frac in (-2.0, -8.0):
            ss = kc.steady_at(p, frac * defaults.omega_m, crit_drive)
            g1 = kc.skewness(kc.photon_spectrum(ss, p, grid))
            assert g1 == pytest.approx(3.48, abs=0.02)

    def test_effective_skewness_positive_in_cooling_region(self, defaults, crit_drive):
        geff = kc.effective_skewness(defaults, crit_drive,
                                     kc.bifurcation(defaults).delta_bi)
        assert geff > 10.0

    def test_scale_invariance(self, defaults):
        rng = np.random.default_rng(4)
        grid = np.linspace(-1, 1, 301)
        vals = rng.uniform(0.1, 5.0, 301)
        a = kc.skewness(Spectrum(grid=grid, values=vals))
        b = kc.skewness(Spectrum(grid=grid, values=1e7 * vals))
        assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_against_mpmath(self, defaults, crit_drive, seed):
        # the product-form moments of a 20,001-point photon spectrum, with
        # the sums, deviations and powers redone in 50 digits
        rng = np.random.default_rng(seed)
        p = defaults.replace(g0=TAU * rng.uniform(1.7e3, 35e3))
        if seed % 2:
            p = p.without_kerr()
        delta = -rng.uniform(0.01, 12.0) * defaults.omega_m
        ss = kc.steady_at(p, delta, rng.uniform(0.01, 1.0) * crit_drive)
        spec = kc.photon_spectrum(ss, p, skewness_grid(p))
        with mpmath.workdps(50):
            x = [mpmath.mpf(v) for v in spec.values]
            mu = mpmath.fsum(x) / len(x)
            m2 = mpmath.fsum((v - mu) ** 2 for v in x) / len(x)
            m3 = mpmath.fsum((v - mu) ** 3 for v in x) / len(x)
            exact = m3 / m2 ** mpmath.mpf(1.5)
        assert kc.skewness(spec) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_workspace_equals_spectrum_skewness(self, defaults, seed):
        # one workspace reused over seeded states of a system and of its
        # linear twin, as a detuning profile reuses it over its rows
        rng = np.random.default_rng(20 + seed)
        p = sweeps.sideband_variant(defaults.replace(g0=TAU * rng.uniform(1.7e3, 35e3)),
                                    rng.uniform(0.02, 0.5))
        skew = SkewnessWorkspace(p)
        grid = skewness_grid(p)
        for _ in range(8):
            q = p.without_kerr() if rng.random() < 0.3 else p
            n_in = rng.uniform(1e-3, 1.0) * kc.critical_power(p)
            ss = kc.steady_at(q, -rng.uniform(0.01, 12.0) * p.omega_m, n_in)
            want = kc.skewness(kc.photon_spectrum(ss, q, grid))
            assert skew.skewness(ss).hex() == want.hex()

    def test_workspace_guards_keep_their_texts(self, defaults, crit_drive):
        skew = SkewnessWorkspace(defaults)
        grid = skewness_grid(defaults)
        bi = kc.bifurcation(defaults)
        roots = kc.photon_branches(defaults, -1.4 * defaults.kappa, 2.0 * bi.n_in_bi)
        middle = state_for_root(defaults, -1.4 * defaults.kappa, 2.0 * bi.n_in_bi,
                                roots[1][0])
        undriven = kc.steady_at(defaults, -defaults.omega_m, 0.0)
        for ss, error in ((middle, InstabilityError), (undriven, DegenerateSpectrumError)):
            with pytest.raises(error) as want:
                kc.skewness(kc.photon_spectrum(ss, defaults, grid))
            with pytest.raises(error) as got:
                skew.skewness(ss)
            assert str(got.value) == str(want.value)
        # a failed row leaves nothing behind for the next
        ss = kc.steady_at(defaults, -2.0 * defaults.omega_m, crit_drive)
        want = kc.skewness(kc.photon_spectrum(ss, defaults, grid))
        assert skew.skewness(ss).hex() == want.hex()


class TestScatteringRates:
    def test_backaction_evasion_at_ep(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -defaults.kappa, crit_drive)
        forced = state_for_root(defaults, -ss.lambda_abs, crit_drive, ss.n_c,
                                Branch.MONOSTABLE)
        rates = kc.scattering_rates(forced, defaults)
        assert rates.gamma_opt == 0.0
        assert rates.gamma_stokes == pytest.approx(rates.gamma_antistokes, rel=1e-10)

    def test_cooling_sign_condition(self, defaults, crit_drive):
        rng = np.random.default_rng(31)
        for _ in range(60):
            d = -rng.uniform(0.02, 2.5) * defaults.kappa
            ss = kc.steady_at(defaults, d, rng.uniform(1e-3, 1.0) * crit_drive)
            rates = kc.scattering_rates(ss, defaults)
            assert (rates.gamma_opt > 0) == (d < -ss.lambda_abs)

    def test_rates_nonnegative_and_consistent(self, defaults, crit_drive, optimal_state):
        rates = kc.scattering_rates(optimal_state, defaults)
        assert rates.gamma_stokes > 0 and rates.gamma_antistokes > 0
        assert rates.gamma_opt == pytest.approx(
            rates.gamma_antistokes - rates.gamma_stokes, rel=1e-10)
        assert rates.c_eff == pytest.approx(rates.gamma_opt / defaults.gamma_m, rel=1e-14)

    def test_closed_form_equals_spectrum_difference(self, defaults, crit_drive):
        rng = np.random.default_rng(32)
        for _ in range(50):
            d = -rng.uniform(0.05, 2.0) * defaults.kappa
            ss = kc.steady_at(defaults, d, rng.uniform(0.01, 1.0) * crit_drive)
            r = kc.scattering_rates(ss, defaults)
            diff = r.gamma_antistokes - r.gamma_stokes
            assert abs(r.gamma_opt - diff) <= 1e-12 * (r.gamma_antistokes + r.gamma_stokes)
            # the closed-form Stokes rate is the spectrum's red sideband
            stokes = defaults.g0 ** 2 * float(
                photon_spectrum_values(-defaults.omega_m, ss, defaults))
            assert r.gamma_stokes == pytest.approx(stokes, rel=1e-12, abs=0.0)
