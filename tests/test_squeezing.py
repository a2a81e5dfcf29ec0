import math

import numpy as np
import pytest

import kerrcool as kc
from kerrcool.errors import ConfigError
from kerrcool.squeezing import (SqueezeSpec, db_from_factor, factor_from_db,
                                n_s_from_factor, sideband_asymmetry,
                                squeezed_rates, squeezing_factor)


def random_states(defaults, crit_drive, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = -rng.uniform(0.2, 2.5) * defaults.kappa
        f = rng.uniform(0.01, 1.0) * crit_drive
        ss = kc.steady_at(defaults, d, f)
        if ss.delta_eff > 0:  # cooling side only
            out.append(ss)
    return out


class TestCorrelators:
    def test_vacuum_input(self, defaults):
        assert kc.correlators_from_chi(defaults.kappa, 0.0) == (0.0, 0.0)

    def test_pure_dpa_identity(self, defaults):
        rng = np.random.default_rng(51)
        for _ in range(300):
            chi = rng.uniform(0.0, 0.499) * defaults.kappa
            n_s, m_s = kc.correlators_from_chi(defaults.kappa, chi)
            assert m_s ** 2 - n_s * (n_s + 1.0) == pytest.approx(0.0, abs=1e-12 * max(1, m_s ** 2))

    def test_above_threshold_rejected(self, defaults):
        with pytest.raises(ValueError):
            kc.correlators_from_chi(defaults.kappa, 0.5 * defaults.kappa)
        with pytest.raises(ValueError):
            kc.correlators_from_chi(defaults.kappa, -1.0)

    def test_round_trips_exact(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            xi = rng.uniform(0.01, 1.0)
            n_s = 10 ** rng.uniform(-3, 3)
            r = squeezing_factor(xi, n_s)
            assert n_s_from_factor(xi, r) == pytest.approx(n_s, rel=1e-12)
            db = db_from_factor(r)
            assert factor_from_db(db) == pytest.approx(r, rel=1e-12)
        sq = SqueezeSpec.from_db(0.8, 10.0)
        assert sq.db == pytest.approx(10.0, rel=1e-12)

    def test_spec_from_chi_consistent(self, defaults):
        sq = SqueezeSpec.from_chi(0.9, defaults.kappa, 0.3 * defaults.kappa)
        assert sq.m_s == pytest.approx(math.sqrt(sq.n_s * (sq.n_s + 1)), rel=1e-12)
        assert math.sinh(sq.r) ** 2 == pytest.approx(0.9 * sq.n_s, rel=1e-12)

    def test_purity_bounds(self):
        with pytest.raises(ConfigError):
            SqueezeSpec.from_n_s(1.5, 1.0)
        with pytest.raises(ConfigError):
            SqueezeSpec.from_n_s(-0.1, 1.0)

    def test_negative_n_s_and_zero_purity_are_config_errors(self):
        # checked before any square root is taken
        for n_s in (-1.0, -0.5, math.nan):
            with pytest.raises(ConfigError, match="n_s must be >= 0"):
                SqueezeSpec.from_n_s(0.5, n_s)
        with pytest.raises(ConfigError, match="purity xi must be positive"):
            SqueezeSpec.from_db(0.0, 3.0)

    def test_overflowing_correlators_are_config_errors(self):
        # M_s = sqrt(N_s (N_s + 1)) must stay finite, and so must N_s from dB
        for n_s in (math.inf, 1e300, 1.4e154):
            with pytest.raises(ConfigError, match="n_s must keep M_s"):
                SqueezeSpec.from_n_s(0.5, n_s)
        assert math.isfinite(SqueezeSpec.from_n_s(0.5, 1e154).m_s)
        for db in (7000.0, -7000.0, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="squeeze_db"):
                SqueezeSpec.from_db(0.5, db)
        with pytest.raises(ConfigError, match="squeeze_db"):
            SqueezeSpec.from_db(1e-320, 3.0)


class TestForceSpectrum:
    def test_vacuum_reduction(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -1.2 * defaults.kappa, crit_drive)
        grid = np.linspace(-3 * defaults.kappa, 3 * defaults.kappa, 501)
        vac = kc.squeezed_force_spectrum(ss, defaults, SqueezeSpec.vacuum(), grid)
        reference = defaults.g0 ** 2 * kc.photon_spectrum(ss, defaults, grid).values
        assert vac == pytest.approx(reference, rel=1e-14)

    def test_total_damping_invariant(self, defaults, crit_drive):
        # 100 random (state, xi, N_s, phase) combinations leave
        # S_FF[w_m] - S_FF[-w_m] at its vacuum value
        rng = np.random.default_rng(53)
        states = random_states(defaults, crit_drive, 20, 54)
        for _ in range(100):
            ss = states[rng.integers(len(states))]
            sq = SqueezeSpec.from_n_s(rng.uniform(0.0, 1.0),
                                      10 ** rng.uniform(-2, 2),
                                      rng.uniform(0, math.pi))
            _, _, total = squeezed_rates(ss, defaults, sq)
            vacuum = kc.scattering_rates(ss, defaults).gamma_opt
            assert total == pytest.approx(vacuum, rel=1e-10)

    def test_optimal_phase_lowers_stokes(self, defaults, crit_drive):
        for ss in random_states(defaults, crit_drive, 10, 55):
            vac = kc.scattering_rates(ss, defaults).gamma_stokes
            for xi in (0.3, 0.8):
                sq = kc.matched_squeeze(ss, defaults, xi)
                gamma_s, _, _ = squeezed_rates(ss, defaults, sq)
                assert gamma_s < vac

    def test_phase_period_pi(self, defaults, optimal_state):
        sq = SqueezeSpec.from_n_s(0.7, 2.0, 0.4)
        a = squeezed_rates(optimal_state, defaults, sq)[0]
        b = squeezed_rates(optimal_state, defaults, sq.with_phase(0.4 + math.pi))[0]
        assert a == pytest.approx(b, rel=1e-12)


class TestOptimalPhase:
    def test_range_and_small_detuning_limit(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -1.2 * defaults.kappa, crit_drive)
        forced = kc.steady.state_for_root(defaults, -ss.lambda_abs - 1e-6 * defaults.kappa,
                                          crit_drive, ss.n_c)
        phi = kc.optimal_phase(forced, defaults)
        assert phi == pytest.approx(0.0, abs=1e-4) or phi == pytest.approx(math.pi, abs=1e-4)
        for s in random_states(defaults, crit_drive, 10, 56):
            assert 0.0 <= kc.optimal_phase(s, defaults) < math.pi

    def test_stationary_and_minimal(self, defaults, crit_drive):
        for ss in random_states(defaults, crit_drive, 5, 57):
            phi = kc.optimal_phase(ss, defaults)
            sq = SqueezeSpec.from_n_s(0.7, 2.0)
            h = 1e-5

            def gamma_s(angle):
                return squeezed_rates(ss, defaults, sq.with_phase(angle))[0]

            deriv = (gamma_s(phi + h) - gamma_s(phi - h)) / (2 * h)
            scale = abs(gamma_s(phi)) / 1.0
            assert abs(deriv) < 1e-8 * scale / h * h + 1e-6 * scale
            curvature = gamma_s(phi + h) + gamma_s(phi - h) - 2 * gamma_s(phi)
            assert curvature > 0


class TestSqueezedBackaction:
    def test_full_suppression_at_unit_purity(self, defaults, optimal_state):
        n_ba_s, wp, n_s, r, db = kc.squeezed_backaction(optimal_state, defaults, 1.0)
        assert n_ba_s == 0.0
        assert 0 < wp < 1
        assert r > 0 and db > 0

    def test_suppression_law(self, defaults, crit_drive):
        # n_BA^s / n_BA == (1 - xi) at matched gain and optimal phase,
        # with the squeezed Stokes rate taken from the spectrum route
        rng = np.random.default_rng(58)
        for ss in random_states(defaults, crit_drive, 100, 59):
            xi = rng.uniform(0.0, 1.0)
            sq = kc.matched_squeeze(ss, defaults, xi)
            gamma_s_sq, _, total = squeezed_rates(ss, defaults, sq)
            n_ba_vac = kc.backaction_limit(defaults, ss.delta_eff)
            assert gamma_s_sq / total == pytest.approx((1 - xi) * n_ba_vac, rel=1e-10)
            n_ba_s = kc.squeezed_backaction(ss, defaults, xi)[0]
            assert n_ba_s == pytest.approx((1 - xi) * n_ba_vac, rel=1e-10)

    def test_monotone_in_purity(self, defaults, optimal_state):
        xis = np.linspace(0, 1, 21)
        values = [kc.squeezed_backaction(optimal_state, defaults, xi)[0] for xi in xis]
        assert np.all(np.diff(values) <= 0)

    def test_matched_gain_is_optimal(self, defaults, optimal_state):
        # perturbing N_s away from the matched value raises the Stokes rate
        xi = 0.8
        matched = kc.matched_squeeze(optimal_state, defaults, xi)
        base = squeezed_rates(optimal_state, defaults, matched)[0]
        for factor in (0.8, 1.25):
            sq = SqueezeSpec.from_n_s(xi, factor * matched.n_s, matched.phase)
            assert squeezed_rates(optimal_state, defaults, sq)[0] > base

    def test_wp_matches_rate_ratio(self, defaults, crit_drive):
        for ss in random_states(defaults, crit_drive, 10, 60):
            rates = kc.scattering_rates(ss, defaults)
            wp2 = sideband_asymmetry(ss, defaults)
            assert wp2 == pytest.approx(rates.gamma_stokes / rates.gamma_antistokes,
                                        rel=1e-10)


class TestOccupationWithSqueezing:
    def test_vacuum_reduces_to_plain_occupation(self, defaults, optimal_state):
        n_plain = kc.occupation(optimal_state, defaults).n_rate
        n_sq = kc.occupation_with_squeezing(optimal_state, defaults, SqueezeSpec.vacuum())
        assert n_sq == pytest.approx(n_plain, rel=1e-14)
        assert kc.occupation(optimal_state, defaults, 0.0).n_rate == n_plain

    def test_matched_equals_spectrum_route(self, defaults, crit_drive):
        for ss in random_states(defaults, crit_drive, 10, 61):
            for xi in (0.44, 0.9, 0.99):
                sq = kc.matched_squeeze(ss, defaults, xi)
                via_spectrum = kc.occupation_with_squeezing(ss, defaults, sq)
                via_rates = kc.occupation(ss, defaults, xi).n_rate
                assert via_spectrum == pytest.approx(via_rates, rel=1e-10)

    def test_report_under_matched_squeezing(self, defaults, crit_drive):
        # the Stokes rate and the backaction terms scale by (1 - xi); the
        # damping, the thermal share and the poles do not move
        for ss in random_states(defaults, crit_drive, 10, 62):
            vac = kc.occupation(ss, defaults)
            for xi in (0.44, 0.9, 0.99):
                keep = 1.0 - xi
                rep = kc.occupation(ss, defaults, xi)
                damping = defaults.gamma_m + vac.rates.gamma_opt
                assert rep.rates.gamma_stokes == keep * vac.rates.gamma_stokes
                assert rep.rates.gamma_antistokes - rep.rates.gamma_stokes == pytest.approx(
                    vac.rates.gamma_opt, rel=1e-12)
                assert (rep.rates.gamma_opt, rep.rates.c_eff) == (vac.rates.gamma_opt,
                                                                 vac.rates.c_eff)
                assert (rep.sigma_m, rep.mech_poles, rep.thermal_share) == (
                    vac.sigma_m, vac.mech_poles, vac.thermal_share)
                assert rep.n_rate == (defaults.gamma_m * defaults.n_th
                                      + keep * vac.rates.gamma_stokes) / damping
                assert rep.n_backaction == kc.squeezed_backaction(ss, defaults, xi)[0]
                assert rep.backaction_share == pytest.approx(keep * vac.backaction_share,
                                                             rel=1e-15)
                assert rep.n_closed == pytest.approx(rep.n_rate, rel=1e-9)

    def test_decoupled_oscillator_stays_thermal(self, defaults, crit_drive):
        p = defaults.replace(g0=0.0)
        for d in (-1.0, 0.2):
            ss = kc.steady_at(p, d * p.kappa, crit_drive)
            for xi in (0.0, 0.44, 1.0):
                assert kc.occupation(ss, p, xi).n_rate == p.n_th

    def test_squeezing_always_helps_at_optimum(self, defaults, optimal_state):
        base = kc.occupation(optimal_state, defaults).n_rate
        previous = base
        for xi in (0.3, 0.6, 0.9):
            n = kc.occupation(optimal_state, defaults, xi).n_rate
            assert n < previous
            previous = n
