import math

import numpy as np
import pytest

import kerrcool as kc
from kerrcool.errors import BranchPolicyError, LinearCavityError
from kerrcool.params import TAU, BranchPolicy, OperatingPoint
from kerrcool.steady import (Branch, branch_slope, cubic_coeffs, cubic_discriminant_rel,
                             cubic_residual, lower_branch_array, state_for_root)

S3 = math.sqrt(3.0)


class TestEffectiveKerr:
    def test_defaults_value(self, defaults):
        # intrinsic 1.6e5 Hz plus mechanical part 2*(1700)^2/(3e5) = 19.267 Hz
        assert kc.effective_kerr(defaults) / TAU == pytest.approx(160019.2667, rel=1e-8)

    def test_no_coupling_reduces_to_intrinsic(self, defaults):
        p = defaults.replace(g0=0.0)
        assert kc.effective_kerr(p) == p.kerr

    def test_pure_mechanical_kerr(self, defaults):
        p = defaults.without_kerr()
        assert kc.effective_kerr(p) / TAU == pytest.approx(19.2667, rel=1e-4)
        assert kc.effective_kerr(defaults) >= defaults.kerr

    @pytest.mark.parametrize("g0", [1e-6, 1.0, None])
    def test_mechanical_kerr_formed_directly(self, defaults, g0):
        # K_eff - K cancels where the mechanical part is far below K: at
        # g0 = 1e-6 rad/s it gave 0.0 against about 1e-18 rad/s
        p = defaults if g0 is None else defaults.replace(g0=g0)
        direct = 2.0 * p.g0 ** 2 * p.omega_m / (p.omega_m ** 2 + p.gamma_m ** 2 / 4.0)
        assert direct > 0.0
        assert kc.mechanical_kerr(p) == pytest.approx(direct, rel=1e-15, abs=0.0)
        assert kc.effective_kerr(p) == p.kerr + kc.mechanical_kerr(p)


class TestPhotonBranches:
    def test_zero_drive(self, defaults):
        assert kc.photon_branches(defaults, -1e6, 0.0) == [(0.0, True)]

    def test_single_root_at_critical_drive(self, defaults, crit_drive):
        bi = kc.bifurcation(defaults)
        roots = kc.photon_branches(defaults, bi.delta_bi, crit_drive)
        assert len(roots) == 1
        n_c, stable = roots[0]
        assert stable
        assert n_c == pytest.approx(bi.n_bi, rel=6e-3)  # cube-root critical scaling

    def test_three_roots_above_bifurcation(self, defaults):
        # at twice the critical drive the bistable window is
        # Delta/kappa in [-1.58, -1.22]; probe well inside it
        bi = kc.bifurcation(defaults)
        delta = -1.4 * defaults.kappa
        roots = kc.photon_branches(defaults, delta, 2.0 * bi.n_in_bi)
        assert len(roots) == 3
        values = [r for r, _ in roots]
        assert values == sorted(values)
        assert all(v > 0 for v in values)
        stabilities = [s for _, s in roots]
        assert stabilities == [True, False, True]
        # resolvent discriminant is negative where three real roots coexist
        assert cubic_discriminant_rel(defaults, delta, 2.0 * bi.n_in_bi) < 0
        assert cubic_discriminant_rel(defaults, -2.0 * defaults.kappa, 2.0 * bi.n_in_bi) > 0

    def test_residual_tolerance(self, defaults, crit_drive):
        rng = np.random.default_rng(3)
        k_eff = kc.effective_kerr(defaults)
        for _ in range(200):
            delta = -rng.uniform(0.0, 3.0) * defaults.kappa
            n_in = rng.uniform(1e-3, 3.0) * crit_drive
            roots = [r for r, _ in kc.photon_branches(defaults, delta, n_in)]
            res = cubic_residual(k_eff, delta, defaults.kappa, n_in, roots)
            assert np.max(np.abs(res)) < 1e-10

    def test_matches_companion_matrix_roots(self, defaults, crit_drive):
        rng = np.random.default_rng(5)
        k_eff = kc.effective_kerr(defaults)
        for _ in range(100):
            delta = -rng.uniform(0.0, 3.0) * defaults.kappa
            n_in = rng.uniform(1e-3, 3.0) * crit_drive
            mine = [r for r, _ in kc.photon_branches(defaults, delta, n_in)]
            ref = np.roots(cubic_coeffs(k_eff, delta, defaults.kappa, n_in))
            ref = sorted(r.real for r in ref
                         if abs(r.imag) < 1e-7 * max(1.0, abs(r)) and r.real > 0)
            if len(ref) == len(mine):
                assert mine == pytest.approx(ref, rel=1e-7)

    def test_root_count_transitions(self, defaults):
        bi = kc.bifurcation(defaults)
        deltas = np.linspace(-2.5 * defaults.kappa, -0.01 * defaults.kappa, 800)
        counts = [len(kc.photon_branches(defaults, d, 1.5 * bi.n_in_bi)) for d in deltas]
        assert set(counts) == {1, 3}
        # the bistable window is a single contiguous block
        first = counts.index(3)
        last = len(counts) - 1 - counts[::-1].index(3)
        assert all(c == 3 for c in counts[first:last + 1])
        counts_below = [len(kc.photon_branches(defaults, d, 0.999 * bi.n_in_bi))
                        for d in deltas]
        assert set(counts_below) == {1}

    def test_lower_branch_monotone_in_drive(self, defaults, crit_drive):
        for delta in (-0.5 * defaults.kappa, -1.2 * defaults.kappa):
            fluxes = np.linspace(0.01, 2.0, 60) * crit_drive
            ns = [kc.photon_branches(defaults, delta, f)[0][0] for f in fluxes]
            assert np.all(np.diff(ns) > 0)

    def test_array_path_agrees_with_scalar(self, defaults, crit_drive):
        deltas = np.linspace(-2.2 * defaults.kappa, -0.02 * defaults.kappa, 500)
        arr = lower_branch_array(defaults, deltas, crit_drive)
        sample = [kc.photon_branches(defaults, d, crit_drive)[0][0] for d in deltas[::25]]
        assert arr[::25] == pytest.approx(sample, rel=1e-12)


class TestBifurcation:
    def test_universal_values(self, defaults):
        bi = kc.bifurcation(defaults)
        k_eff = kc.effective_kerr(defaults)
        assert bi.delta_bi == pytest.approx(-S3 * defaults.kappa / 2.0, rel=1e-14)
        assert bi.delta_bi / TAU == pytest.approx(-2.598076e6, rel=1e-6)
        assert bi.n_bi == pytest.approx(defaults.kappa / (S3 * k_eff), rel=1e-14)
        assert bi.n_bi == pytest.approx(10.824, rel=1e-4)
        assert bi.n_in_bi == pytest.approx(defaults.kappa ** 2 / (3 * S3 * k_eff), rel=1e-14)

    def test_drive_scales_inversely_with_kerr(self, defaults):
        doubled = defaults.replace(kerr=2.0 * defaults.kerr)
        ratio = kc.bifurcation(defaults).n_in_bi / kc.bifurcation(doubled).n_in_bi
        assert ratio == pytest.approx(2.0, rel=1e-3)  # mechanical Kerr is negligible here

    def test_linear_system_rejected(self, defaults):
        with pytest.raises(LinearCavityError):
            kc.bifurcation(defaults.without_kerr().replace(g0=0.0))

    def test_discriminant_vanishes_at_cusp(self, defaults):
        bi = kc.bifurcation(defaults)
        assert abs(cubic_discriminant_rel(defaults, bi.delta_bi, bi.n_in_bi)) < 1e-8


class TestSolveSteady:
    def test_monostable_near_cusp(self, defaults, crit_drive):
        bi = kc.bifurcation(defaults)
        ss = kc.steady_at(defaults, bi.delta_bi, crit_drive)
        assert ss.branch is Branch.MONOSTABLE
        assert ss.n_c == pytest.approx(bi.n_bi, rel=6e-3)

    def test_resonant_linear_peak(self, defaults):
        p = defaults.without_kerr().replace(g0=0.0)
        ss = kc.steady_at(p, 0.0, 1e6)
        assert ss.n_c == pytest.approx(4.0 * 1e6 / p.kappa, rel=1e-12)

    def test_no_coupling_no_static_shift(self, defaults, crit_drive):
        p = defaults.replace(g0=0.0)
        ss = kc.steady_at(p, -defaults.kappa, crit_drive)
        assert ss.q_static == 0.0
        assert ss.g_abs == 0.0

    def test_static_shift_sign(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -defaults.kappa, crit_drive)
        assert ss.q_static < 0

    def test_derived_quantities(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, -1.1 * defaults.kappa, crit_drive)
        assert ss.lambda_abs == pytest.approx(defaults.kerr * ss.n_c, rel=1e-14)
        assert ss.g_abs == pytest.approx(defaults.g0 * math.sqrt(ss.n_c), rel=1e-14)
        assert ss.delta_tilde == pytest.approx(ss.detuning + 2 * ss.lambda_abs, rel=1e-14)

    def test_pole_radicand_identity(self, defaults, crit_drive):
        # Delta~^2 - |Lambda|^2 == (Delta + 3|Lambda|)(Delta + |Lambda|)
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = -rng.uniform(0.05, 2.5) * defaults.kappa
            f = rng.uniform(1e-3, 1.0) * crit_drive
            ss = kc.steady_at(defaults, d, f)
            lhs = ss.delta_tilde ** 2 - ss.lambda_abs ** 2
            rhs = (d + 3 * ss.lambda_abs) * (d + ss.lambda_abs)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-3 * defaults.kappa ** 2 * 1e-12)

    def test_branch_policies(self, defaults):
        bi = kc.bifurcation(defaults)
        op = dict(detuning=-1.4 * defaults.kappa, n_in=2.0 * bi.n_in_bi)
        lower = kc.solve_steady(defaults, OperatingPoint(**op))
        upper = kc.solve_steady(defaults, OperatingPoint(
            **op, branch_policy=BranchPolicy.UPPER_BRANCH))
        assert lower.branch is Branch.BISTABLE_LOWER
        assert upper.branch is Branch.BISTABLE_UPPER
        assert upper.n_c > lower.n_c
        with pytest.raises(BranchPolicyError):
            kc.solve_steady(defaults, OperatingPoint(
                **op, branch_policy=BranchPolicy.REQUIRE_MONOSTABLE))

    def test_phase_is_consistent_with_steady_equation(self, defaults, crit_drive):
        # alpha * (i(Delta + K_eff n_c) - kappa/2) must be real positive * -sqrt(kappa n_in)
        ss = kc.steady_at(defaults, -1.3 * defaults.kappa, crit_drive)
        alpha = math.sqrt(ss.n_c) * complex(math.cos(ss.phi_c), math.sin(ss.phi_c))
        drive = alpha * complex(-defaults.kappa / 2.0,
                                ss.detuning + ss.k_eff * ss.n_c)
        assert abs(drive.imag) < 1e-9 * abs(drive)
        assert drive.real > 0  # equals sqrt(kappa) * a_in with a_in > 0

    def test_middle_branch_slope_negative(self, defaults):
        bi = kc.bifurcation(defaults)
        roots = kc.photon_branches(defaults, -1.4 * defaults.kappa, 2.0 * bi.n_in_bi)
        k_eff = kc.effective_kerr(defaults)
        slopes = [branch_slope(k_eff, -1.4 * defaults.kappa, defaults.kappa, r)
                  for r, _ in roots]
        assert slopes[0] > 0 and slopes[1] < 0 and slopes[2] > 0

    def test_state_for_root_matches_solver(self, defaults, crit_drive):
        d = -1.5 * defaults.kappa
        n_c = kc.photon_branches(defaults, d, crit_drive)[0][0]
        manual = state_for_root(defaults, d, crit_drive, n_c, Branch.MONOSTABLE)
        auto = kc.steady_at(defaults, d, crit_drive)
        assert manual.n_c == auto.n_c
        assert manual.delta_tilde == auto.delta_tilde
        assert manual.phi_c == auto.phi_c
