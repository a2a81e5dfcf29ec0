import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import kerrcool as kc
from kerrcool import cooling, sweeps
from kerrcool.cooling import integrate_mech_spectrum, mechanical_poles
from kerrcool.errors import InstabilityError
from kerrcool.params import TAU
from kerrcool.steady import Branch, state_for_root


class TestSelfEnergy:
    def test_vanishes_at_backaction_evasion(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -defaults.kappa, crit_drive)
        forced = state_for_root(defaults, -ss.lambda_abs, crit_drive, ss.n_c,
                                Branch.MONOSTABLE)
        omegas = np.linspace(-2 * defaults.kappa, 2 * defaults.kappa, 101)
        assert np.all(kc.cavity_self_energy(forced, defaults, omegas) == 0.0)

    def test_vanishes_without_coupling(self, defaults, crit_drive):
        p = defaults.replace(g0=0.0)
        ss = kc.steady_at(p, -defaults.kappa, crit_drive)
        assert complex(kc.cavity_self_energy(ss, p, p.omega_m)) == 0.0

    def test_imaginary_part_is_half_optical_damping(self, defaults, crit_drive):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = -rng.uniform(0.05, 2.5) * defaults.kappa
            ss = kc.steady_at(defaults, d, rng.uniform(0.01, 1.0) * crit_drive)
            sigma = complex(kc.cavity_self_energy(ss, defaults, defaults.omega_m))
            gamma_opt = kc.scattering_rates(ss, defaults).gamma_opt
            assert 2.0 * sigma.imag == pytest.approx(gamma_opt, rel=1e-10)

    def test_wrapper_exposes_modified_dynamics(self, defaults, optimal_state):
        se = kc.SelfEnergy(optimal_state, defaults)
        sigma = complex(se.value_at(defaults.omega_m))
        assert se.delta_eff == optimal_state.delta_eff
        assert se.modified_frequency(defaults.omega_m) == pytest.approx(
            defaults.omega_m - sigma.real)
        assert se.modified_damping(defaults.omega_m) == pytest.approx(
            defaults.gamma_m + 2 * sigma.imag)


class TestMechNoiseSpectrum:
    def test_decoupled_thermal_lorentzian(self, defaults, crit_drive):
        p = defaults.replace(g0=0.0)
        ss = kc.steady_at(p, -p.kappa, crit_drive)
        grid = np.linspace(p.omega_m - 50 * p.gamma_m, p.omega_m + 50 * p.gamma_m, 2001)
        spec = kc.mech_noise_spectrum(ss, p, grid)
        lorentz = p.gamma_m * p.n_th / ((grid - p.omega_m) ** 2 + p.gamma_m ** 2 / 4)
        assert spec.values == pytest.approx(lorentz, rel=1e-9)
        value, _ = integrate_mech_spectrum(ss, p)
        assert value == pytest.approx(p.n_th, rel=1e-12)

    def test_line_position_and_width(self, defaults, optimal_state):
        rep = kc.occupation(optimal_state, defaults)
        width = defaults.gamma_m + rep.rates.gamma_opt
        center = defaults.omega_m - rep.sigma_m.real
        grid = np.linspace(center - 40 * width, center + 40 * width, 8001)
        spec = kc.mech_noise_spectrum(optimal_state, defaults, grid)
        peak = grid[np.argmax(spec.values)]
        assert peak == pytest.approx(center, abs=2 * (grid[1] - grid[0]))
        half = spec.values.max() / 2.0
        above = grid[spec.values >= half]
        assert above[-1] - above[0] == pytest.approx(width, rel=0.02)

    def test_quadrature_matches_closed_occupation(self, defaults, optimal_state):
        rep = kc.occupation(optimal_state, defaults)
        value, err = integrate_mech_spectrum(optimal_state, defaults)
        assert value == pytest.approx(rep.n_closed, rel=0.02)

    def test_instability_rejected(self, defaults, crit_drive):
        # blue-detuned side anti-damps; find a point with Gamma_opt < -gamma_m
        ss = kc.steady_at(defaults, -defaults.kappa, crit_drive)
        heating = state_for_root(defaults, -0.5 * ss.lambda_abs, crit_drive,
                                 ss.n_c, Branch.MONOSTABLE)
        assert kc.scattering_rates(heating, defaults).gamma_opt < -defaults.gamma_m
        with pytest.raises(InstabilityError):
            kc.mech_noise_spectrum(heating, defaults, np.linspace(-1e6, 1e6, 11))


#: (detuning_hz, fraction of the bifurcation flux) of twelve operating
#: points stratified over -2.5 to -1 kappa and 0.05 to 1 - 1e-7 of the flux:
#: the oracle points of the benchmark at seed 1
ORACLE_POINTS = (
    (-7348840.225373548, 0.3183539884489991), (-6640753.553651309, 0.44743848298184935),
    (-6942635.527021566, 0.8256720888667316), (-5641957.905686892, 0.2997623682354675),
    (-6269407.964878986, 0.3756433332870528), (-5434764.258090147, 0.8203761570776981),
    (-4392434.907234815, 0.05066691682431661), (-4748939.406688348, 0.5951542861899134),
    (-4992642.501070741, 0.9826689554163857), (-3110894.11018708, 0.05968682694095919),
    (-4096373.4063823563, 0.5381138983375249), (-3068457.191874176, 0.8040479292277928),
)


def _oracle_states(p):
    n_bi = kc.bifurcation(p).n_in_bi
    return [kc.steady_at(p, TAU * dhz, frac * n_bi) for dhz, frac in ORACLE_POINTS]


def _mp_occupation(ss, p):
    """int dw/2pi S(w) of `mech_noise_spectrum` in 50-digit arithmetic,
    taking the float rates, Sigma_c[omega_m] and poles of `_mech_response`
    as exact: 2 pi i times the residues at the poles in the upper half
    plane, with each modulus |g(w)|^2 = g(w) conj(g)(w) of the numerator
    and denominator continued analytically."""
    rates, sigma, poles = cooling._mech_response(ss, p)
    plus, minus = map(complex, poles)
    with mpmath.workdps(50):
        gm, om, nth = mpmath.mpf(p.gamma_m), mpmath.mpf(p.omega_m), mpmath.mpf(p.n_th)
        stokes, sg = mpmath.mpf(rates.gamma_stokes), mpmath.mpc(sigma)
        thermal = gm / 2 - 1j * om + 1j * sg     # chi_m^{*-1}[-w] + i Sigma at w = 0
        bare = gm / 2 - 1j * om

        def numerator(z):
            return (gm * nth * (thermal - 1j * z) * (mpmath.conj(thermal) + 1j * z)
                    + gm * abs(sg) ** 2 * (nth + 1)
                    + stokes * (bare - 1j * z) * (mpmath.conj(bare) + 1j * z))

        poles = [mpmath.mpc(plus), mpmath.mpc(minus)]
        poles += [mpmath.conj(z) for z in poles]
        total = 0
        for i, z in enumerate(poles):
            if mpmath.im(z) > 0:
                others = mpmath.fprod(z - w for j, w in enumerate(poles) if j != i)
                total += numerator(z) / others
        return float(mpmath.re(1j * total))


def _strong_coupling_states(defaults, count=12, ratio=10.0):
    """Seeded lower-branch points where Gamma_opt exceeds `ratio` gamma_m:
    g0/2pi 1.7-50 kHz, omega_m/kappa 0.05-0.35, detuning -2.5 to -0.3
    kappa, drive 0.05 to 1 - 1e-7 of the bifurcation flux."""
    out, seed = [], 0
    while len(out) < count:
        rng = np.random.default_rng(seed)
        seed += 1
        g0_hz = 10.0 ** rng.uniform(math.log10(1.7e3), math.log10(50e3))
        p = sweeps.sideband_variant(defaults.replace(g0=TAU * g0_hz), rng.uniform(0.05, 0.35))
        n_in = rng.uniform(0.05, 1.0 - 1e-7) * kc.bifurcation(p).n_in_bi
        ss = kc.steady_at(p, -rng.uniform(0.3, 2.5) * p.kappa, n_in)
        if kc.scattering_rates(ss, p).gamma_opt > ratio * p.gamma_m:
            out.append((ss, p))
    return out


#: Bound on the relative gap of the residue sum from `_mp_occupation`.  The
#: largest seen is 4.0e-16 on the oracle points and 4.3e-16 on the
#: strong-coupling points (Gamma_opt from 15 to 14,700 gamma_m), each under
#: a quarter of the error estimate that `integrate_mech_spectrum` returns.
RESIDUE_RTOL = 1e-14


class TestResidueSum:
    def test_oracle_points_against_50_digits(self, defaults):
        states = _oracle_states(defaults)
        # Gamma_opt > gamma_m at the last point lifts Omega_- into the upper
        # half plane; the other poles all lie in the lower one
        for k, ss in enumerate(states):
            plus, minus = mechanical_poles(ss, defaults)
            assert plus.imag < 0.0 and (minus.imag > 0.0) == (k == 11)
            value, err = integrate_mech_spectrum(ss, defaults)
            exact = _mp_occupation(ss, defaults)
            assert abs(value - exact) <= min(err, RESIDUE_RTOL * exact)

    def test_strong_coupling_against_50_digits(self, defaults):
        for ss, p in _strong_coupling_states(defaults):
            value, err = integrate_mech_spectrum(ss, p)
            exact = _mp_occupation(ss, p)
            assert abs(value - exact) <= min(err, RESIDUE_RTOL * exact)

    def test_windowed_quadrature_reads_low(self, defaults):
        # scipy quad at 1e-6 relative over windows of 1e4 linewidths around
        # both lines, trapezoid tails out to 20 kappa: the quadrature that
        # the residue sum replaced.  It reads 1.04e-5 to 1.49e-5 low on the
        # oracle points, which is the weight of the tails cut off at 20 kappa.
        for ss in _oracle_states(defaults):
            rates, sigma, _ = cooling._mech_response(ss, defaults)

            def values(w, ss=ss):
                out = cooling.mech_noise_spectrum(ss, defaults, np.atleast_1d(w)).values
                return out if np.ndim(w) else float(out[0])

            center = defaults.omega_m - sigma.real
            half = 1e4 * (defaults.gamma_m + abs(rates.gamma_opt))
            total = sum(quad(values, lo, lo + 2.0 * half, points=[lo + half], limit=400,
                             epsrel=1e-6)[0] for lo in (-center - half, center - half))
            tails = np.geomspace(center + half, 20.0 * defaults.kappa + center + half, 200)
            total += sum(np.trapezoid(values(g), g) for g in (tails, -tails[::-1]))
            exact, _ = integrate_mech_spectrum(ss, defaults)
            assert 0.9e-5 <= 1.0 - total / (2.0 * math.pi * exact) <= 1.6e-5


def _mp_moments(plus, minus):
    """int dw/2pi w^k / |(w - plus)(w - minus)|^2, k = 0, 1, 2, by 50-digit
    tanh-sinh quadrature split at the real parts of the poles."""
    with mpmath.workdps(50):
        poles = [mpmath.mpc(plus), mpmath.mpc(minus)]
        points = [-mpmath.inf] + sorted({mpmath.re(z) for z in poles}) + [mpmath.inf]

        def factor(w):
            return mpmath.fprod(abs(w - z) ** 2 for z in poles)

        return [float(mpmath.quad(lambda w: w ** k / factor(w), points) / (2 * mpmath.pi))
                for k in range(3)]


class TestExceptionalPoint:
    # Omega_+ = Omega_- where omega_m^2 = 2 omega_m Sigma_c[omega_m]: a
    # double pole, where a sum of simple-pole residues divides by about
    # zero; the largest gap seen is 2.2e-16 relative
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-8, 1e-4, 0.3])
    def test_moments_at_and_near_coincidence(self, defaults, eps):
        gm = defaults.gamma_m
        split = eps * gm * complex(1.0, -0.3)
        plus, minus = -0.5j * gm + split, -0.5j * gm - split
        got = cooling._pole_moments(plus, minus)
        exact = _mp_moments(plus, minus)
        assert got[0] == pytest.approx(exact[0], rel=1e-14, abs=0.0)
        assert got[2] == pytest.approx(exact[2], rel=1e-14, abs=0.0)
        # M1 vanishes at the coincidence; |M1| <= sqrt(M0 M2) sets its scale
        assert abs(got[1] - exact[1]) <= 1e-14 * math.sqrt(exact[0] * exact[2])

    def test_pole_on_the_real_axis_is_refused(self):
        with pytest.raises(InstabilityError):
            cooling._pole_moments(complex(2.0, -1.0), complex(-2.0, 0.0))


class TestOccupation:
    def test_defaults_reproduction(self, defaults, optimal_state):
        rep = kc.occupation(optimal_state, defaults)
        assert rep.n_rate == pytest.approx(12.66, rel=0.01)
        assert defaults.n_th / rep.n_rate == pytest.approx(220.0, rel=0.02)

    def test_thermal_state_without_coupling(self, defaults, crit_drive):
        p = defaults.replace(g0=0.0)
        ss = kc.steady_at(p, -p.kappa, crit_drive)
        rep = kc.occupation(ss, p)
        assert rep.n_rate == p.n_th
        assert rep.n_closed == p.n_th

    def test_closed_and_rate_forms_agree(self, defaults, crit_drive):
        rng = np.random.default_rng(43)
        count = 0
        for _ in range(200):
            d = -rng.uniform(0.02, 2.5) * defaults.kappa
            ss = kc.steady_at(defaults, d, rng.uniform(1e-3, 1.0) * crit_drive)
            try:
                rep = kc.occupation(ss, defaults)
            except InstabilityError:
                continue
            count += 1
            assert abs(rep.n_closed - rep.n_rate) < 1e-6 * rep.n_rate
        assert count > 150

    def test_high_cooperativity_limit_is_backaction(self, defaults, optimal_state):
        rep = kc.occupation(optimal_state, defaults)
        # rebuild the closed form with the thermal load removed
        c = rep.rates.c_eff
        limit = rep.n_backaction
        assert rep.n_closed - rep.thermal_share == pytest.approx(
            c / (c + 1.0) * limit, rel=1e-9)

    def test_shares_sum_to_occupation(self, defaults, optimal_state):
        rep = kc.occupation(optimal_state, defaults)
        assert rep.thermal_share + rep.backaction_share == pytest.approx(
            rep.n_rate, rel=1e-12)

    def test_anti_damping_raises(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -defaults.kappa, crit_drive)
        heating = state_for_root(defaults, -0.5 * ss.lambda_abs, crit_drive,
                                 ss.n_c, Branch.MONOSTABLE)
        with pytest.raises(InstabilityError):
            kc.occupation(heating, defaults)

    def test_mechanical_pole_stability(self, defaults, crit_drive):
        rng = np.random.default_rng(44)
        for _ in range(50):
            d = -rng.uniform(0.3, 2.5) * defaults.kappa
            ss = kc.steady_at(defaults, d, rng.uniform(0.01, 1.0) * crit_drive)
            try:
                rep = kc.occupation(ss, defaults)
            except InstabilityError:
                continue
            # the resonant (+omega_m) pole always decays at a stable point
            assert rep.mech_poles[0].imag < 0


class TestBackactionLimit:
    def test_floor_at_ten_linewidths(self, defaults):
        # kappa/omega_m = 10 at defaults: (sqrt(104) - 2)/4
        delta_star, n_min = kc.min_backaction(defaults)
        assert n_min == pytest.approx((math.sqrt(104.0) - 2.0) / 4.0, rel=1e-14)
        assert n_min == pytest.approx(2.049, abs=1e-3)
        assert delta_star == pytest.approx(
            math.sqrt(defaults.kappa ** 2 / 4 + defaults.omega_m ** 2), rel=1e-14)
        # the optimum truly minimizes the limit
        eps = 1e-4 * delta_star
        assert kc.backaction_limit(defaults, delta_star) < kc.backaction_limit(
            defaults, delta_star + eps)
        assert kc.backaction_limit(defaults, delta_star) < kc.backaction_limit(
            defaults, delta_star - eps)

    def test_threshold_is_unity(self, defaults):
        p = defaults.replace(omega_m=defaults.kappa / (4.0 * math.sqrt(2.0)))
        assert kc.min_backaction(p)[1] == pytest.approx(1.0, abs=1e-12)
        assert not kc.ground_state_feasible(p)
        assert kc.ground_state_feasible(
            defaults.replace(omega_m=1.01 * defaults.kappa / (4 * math.sqrt(2))))
        assert not kc.ground_state_feasible(
            defaults.replace(omega_m=0.99 * defaults.kappa / (4 * math.sqrt(2))))

    def test_resolved_sideband_limit(self, defaults):
        p = defaults.replace(kappa=1e-3 * defaults.omega_m)
        assert kc.backaction_limit(p, p.omega_m) == pytest.approx(
            p.kappa ** 2 / (16.0 * p.omega_m ** 2), rel=1e-12)
        assert kc.backaction_limit(p, p.omega_m) < 1e-6

    def test_heating_side_rejected(self, defaults):
        with pytest.raises(ValueError):
            kc.backaction_limit(defaults, -1.0)
        with pytest.raises(ValueError):
            kc.backaction_limit(defaults, 0.0)


class TestResidueIntegrals:
    def test_closed_forms_match_quadrature(self, defaults, optimal_state):
        plus, minus = mechanical_poles(optimal_state, defaults)

        def factor(w):
            return abs((w - plus) * (w - minus)) ** 2

        # the exact moments; the quadrature stops at +-far, which cuts
        # 2.9e-5 relative off the second
        closed = cooling._pole_moments(complex(plus), complex(minus))
        width = defaults.gamma_m + kc.scattering_rates(optimal_state, defaults).gamma_opt
        far = abs(plus.real) + 2e4 * width
        import warnings
        from scipy.integrate import IntegrationWarning
        for k, expected in enumerate(closed):
            # one spanning quadrature with breakpoints on both narrow lines;
            # the odd moment survives only through the tiny width asymmetry
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                val, _ = quad(lambda w: w ** k / factor(w), -far, far,
                              points=[minus.real, plus.real], limit=2000,
                              epsrel=1e-12, epsabs=1e-30)
            assert val / (2 * math.pi) == pytest.approx(expected, rel=1e-4)
