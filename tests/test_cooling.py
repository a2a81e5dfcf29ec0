import math

import numpy as np
import pytest
from scipy.integrate import quad

import kerrcool as kc
from kerrcool import cooling
from kerrcool.cooling import (integrate_mech_spectrum, mechanical_poles,
                              pole_moment_integrals_closed, quadrature_segments)
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
        assert value == pytest.approx(p.n_th, rel=1e-4)

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


_float_evaluator = cooling._mech_spectrum_evaluator


def _numpy_scalar_evaluator(ss, p):
    """The spectrum closure as it was before it took plain floats: every
    argument through np.asarray, numpy's complex abs, numpy-scalar poles,
    and a scalar result as float(0-d array)."""
    _, rates, sigma = _float_evaluator(ss, p)
    pole_plus, pole_minus = mechanical_poles(ss, p)

    def values(grid):
        grid = np.asarray(grid, dtype=float)
        pole_factor = np.abs((grid - pole_plus) * (grid - pole_minus)) ** 2
        chi_star_inv_neg = p.gamma_m / 2.0 - 1j * (grid + p.omega_m)
        thermal = p.gamma_m * np.abs(chi_star_inv_neg + 1j * sigma) ** 2 * p.n_th
        squeeze = p.gamma_m * abs(sigma) ** 2 * (p.n_th + 1.0)
        backaction = np.abs(chi_star_inv_neg) ** 2 * rates.gamma_stokes
        out = (thermal + squeeze + backaction) / pole_factor
        return float(out) if out.ndim == 0 else out

    return values, rates, sigma


class TestQuadratureOnFloats:
    def test_integral_matches_numpy_scalar_integrand(self, defaults, monkeypatch):
        states = _oracle_states(defaults)
        new = [integrate_mech_spectrum(ss, defaults)[0] for ss in states]
        monkeypatch.setattr(cooling, "_mech_spectrum_evaluator", _numpy_scalar_evaluator)
        old = [integrate_mech_spectrum(ss, defaults)[0] for ss in states]
        assert np.max(np.abs(np.subtract(new, old)) / np.abs(old)) <= 1e-12

    def test_float_and_array_arguments_agree(self, defaults):
        # the two paths differ only in the complex modulus: numpy's and
        # libm's hypot differ by up to 2 ulps, so each squared modulus by up
        # to about 4, and the ratio of the two sums by up to about 12 (11
        # ulps was the largest seen on 72,000 seeded frequencies)
        rng = np.random.default_rng(31)
        for ss in _oracle_states(defaults):
            values, rates, sigma = cooling._mech_spectrum_evaluator(ss, defaults)
            center = defaults.omega_m - sigma.real
            width = defaults.gamma_m + abs(rates.gamma_opt)
            omegas = np.concatenate([center + width * rng.normal(0.0, 3.0, 20),
                                     -center + width * rng.normal(0.0, 3.0, 20),
                                     rng.uniform(-20.0, 20.0, 20) * defaults.kappa])
            for w in omegas:
                scalar = values(float(w))
                assert type(scalar) is float
                array = values(np.array([w]))[0]
                assert abs(scalar - array) <= 16 * np.spacing(array)


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

        closed = pole_moment_integrals_closed(optimal_state, defaults)
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


def test_quadrature_segments_merge_overlapping_windows():
    segs, edge = quadrature_segments(center=1.0, half=10.0)
    assert len(segs) == 1
    assert segs[0][0] == -11.0 and segs[0][1] == 11.0
    segs, edge = quadrature_segments(center=10.0, half=1.0)
    assert len(segs) == 2
    assert segs[0][1] < segs[1][0]
