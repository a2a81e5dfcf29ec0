import csv
import io
import math

import mpmath
import numpy as np
import pytest

import kerrcool as kc
from kerrcool import oracle, sweeps
from kerrcool.cli import run_cli
from kerrcool.params import TAU
from kerrcool.squeezing import SqueezeSpec
from kerrcool.steady import state_for_root


class TestBuildMatrix:
    def test_decoupled_linear_eigenvalues(self, defaults, crit_drive):
        p = defaults.without_kerr().replace(g0=0.0)
        delta = -0.8 * p.kappa
        ss = kc.steady_at(p, delta, crit_drive)
        dm = kc.build_matrix(ss, p)
        expected = sorted([
            complex(-p.kappa / 2, delta), complex(-p.kappa / 2, -delta),
            complex(-p.gamma_m / 2, -p.omega_m), complex(-p.gamma_m / 2, p.omega_m),
        ], key=lambda z: (z.real, z.imag))
        got = sorted(dm.eigenvalues(), key=lambda z: (z.real, z.imag))
        assert got == pytest.approx(expected, rel=1e-12)
        # coupling blocks vanish
        assert np.all(dm.m[:2, 2:] == 0) and np.all(dm.m[2:, :2] == 0)

    def test_stable_below_bifurcation(self, defaults):
        # clearly inside the monostable region: every mode decays
        bi = kc.bifurcation(defaults)
        ss = kc.steady_at(defaults, bi.delta_bi, 0.99 * bi.n_in_bi)
        dm = kc.build_matrix(ss, defaults)
        assert dm.is_stable()
        assert np.all(dm.eigenvalues().real < 0)

    def test_marginal_static_mode_at_critical_drive(self, defaults, crit_state):
        # the drift matrix drops the static mechanical spring (it uses
        # Delta~ = Delta + 2 K n_c only), so 1e-7 below the cusp its static
        # mode sits marginally on the wrong side -- by a scale set by the
        # mechanical Kerr, tiny compared with every physical rate
        dm = kc.build_matrix(crit_state, defaults)
        assert abs(np.max(dm.eigenvalues().real)) < 1e-4 * defaults.kappa

    def test_middle_branch_unstable(self, defaults):
        bi = kc.bifurcation(defaults)
        delta = -1.4 * defaults.kappa
        roots = kc.photon_branches(defaults, delta, 2 * bi.n_in_bi)
        middle = state_for_root(defaults, delta, 2 * bi.n_in_bi, roots[1][0])
        dm = kc.build_matrix(middle, defaults)
        assert not dm.is_stable()
        assert np.max(dm.eigenvalues().real) > 0

    def test_slope_and_eigenvalue_stability_agree(self, defaults):
        # lower and middle branches: classical slope and eigenvalues agree;
        # the upper branch is slope-stable but dynamically anti-damped
        # (Delta_eff < 0 with |Gamma_opt| > gamma_m), a genuine
        # backaction instability beyond the static criterion
        bi = kc.bifurcation(defaults)
        rng = np.random.default_rng(71)
        checked = 0
        for _ in range(40):
            delta = -rng.uniform(1.25, 1.55) * defaults.kappa
            n_in = 2.0 * bi.n_in_bi
            roots = kc.photon_branches(defaults, delta, n_in)
            if len(roots) != 3:
                continue
            checked += 1
            for (n_c, stable), label in zip(roots, ("lower", "middle", "upper")):
                ss = state_for_root(defaults, delta, n_in, n_c)
                dm = kc.build_matrix(ss, defaults)
                if label == "middle":
                    assert not stable and not dm.is_stable()
                elif label == "lower":
                    assert stable and dm.is_stable()
                else:
                    assert stable
                    if not dm.is_stable():
                        gamma_opt = kc.scattering_rates(ss, defaults).gamma_opt
                        assert gamma_opt < -defaults.gamma_m
                        expected = -(defaults.gamma_m + gamma_opt) / 2.0
                        assert np.max(dm.eigenvalues().real) == pytest.approx(
                            expected, rel=0.2)
        assert checked > 10

    def test_decay_matrix(self, defaults, crit_state):
        dm = kc.build_matrix(crit_state, defaults)
        assert np.diag(dm.k) == pytest.approx(
            [math.sqrt(defaults.kappa)] * 2 + [math.sqrt(defaults.gamma_m)] * 2)

    def test_stacked_solves_equal_single_frequencies(self, defaults, optimal_state):
        # numeric_spectrum solves each grid as one stack; a stack must give
        # every frequency's response row and contraction bit for bit
        dm = kc.build_matrix(optimal_state, defaults)
        corr = kc.input_correlators(defaults)
        grid = np.geomspace(1e3, 20.0 * defaults.kappa, 50)
        grid = np.concatenate([grid, -grid])
        ph = np.exp(-1j * optimal_state.phi_c)
        for left in (np.eye(4)[2], np.eye(4)[3], [ph, np.conj(ph), 0.0, 0.0]):
            stacked = oracle.transfer(dm, grid, left)
            for n, w in enumerate(grid):
                assert np.array_equal(stacked[n], oracle.transfer(dm, w, left)[0])
        rows = oracle.transfer(dm, grid, np.eye(4)[2]), oracle.transfer(dm, grid, np.eye(4)[3])
        for n in range(50):
            single = np.einsum("i,j,ij->", rows[1][50 + n], rows[0][n], corr)
            batched = oracle._contract(rows[1][50:], rows[0][:50], corr)[n]
            assert single == batched

    def test_left_row_is_the_row_of_the_full_response(self, defaults):
        # left^T (M + i w I)^(-1) K against the inverse formed in 50 digits
        rng = np.random.default_rng(75)
        for dm, _ in _symmetry_cases(defaults)[::3]:
            ph = np.exp(-1j * dm.ss.phi_c)
            grid = rng.uniform(-4.0, 4.0, 5) * dm.p.kappa
            for left in (np.eye(4)[2], [ph, np.conj(ph), 0.0, 0.0]):
                got = oracle.transfer(dm, grid, left)
                with mpmath.workdps(50):
                    for n, w in enumerate(grid):
                        inv = (mpmath.matrix(dm.m.tolist()) + 1j * w * mpmath.eye(4)) ** -1
                        row = mpmath.matrix([[complex(x) for x in left]]) * inv
                        exact = np.array([complex(row[j]) * dm.k[j, j] for j in range(4)])
                        assert np.max(np.abs(got[n] - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_adjoint_symmetry_is_exact(self, defaults):
        # M = P conj(M) P bit for bit, P swapping (d, d+) and (b, b+): the
        # identity numeric_spectrum takes T(-w) from
        adj = [1, 0, 3, 2]
        for dm, _ in _symmetry_cases(defaults):
            assert np.array_equal(dm.m, np.conj(dm.m)[np.ix_(adj, adj)])
            assert np.array_equal(dm.k, dm.k[np.ix_(adj, adj)])
            assert np.isrealobj(dm.k)

    def test_eigenvalues_match_spectrum_poles_at_zero_coupling(self, defaults, crit_drive):
        p = defaults.replace(g0=0.0)
        rng = np.random.default_rng(72)
        for _ in range(25):
            ss = kc.steady_at(p, -rng.uniform(0.1, 2.5) * p.kappa,
                              rng.uniform(0.01, 1.0) * crit_drive)
            poles = kc.cavity_poles(ss, p).poles
            dm = kc.build_matrix(ss, p)
            # the cavity block decouples exactly at zero coupling;
            # eigenvalue lambda corresponds to pole -i Omega
            eigs = np.linalg.eigvals(dm.m[:2, :2])
            expected = np.array([-1j * w for w in poles])
            direct = np.max(np.abs(eigs - expected) / np.abs(expected))
            swapped = np.max(np.abs(eigs - expected[::-1]) / np.abs(expected))
            assert min(direct, swapped) < 1e-10


class TestNumericSpectrum:
    def test_photon_spectrum_matches_closed_form(self, defaults, crit_drive):
        p = defaults.replace(g0=0.0)
        rng = np.random.default_rng(73)
        grid = np.linspace(-4 * p.kappa, 4 * p.kappa, 2001)
        for _ in range(5):
            ss = kc.steady_at(p, -rng.uniform(0.2, 2.0) * p.kappa,
                              rng.uniform(0.05, 1.0) * crit_drive)
            dm = kc.build_matrix(ss, p)
            num = kc.numeric_spectrum(dm, kc.input_correlators(p), "nn", grid)
            closed = kc.photon_spectrum(ss, p, grid)
            assert np.max(np.abs(num.values - closed.values) / closed.values) < 1e-8

    def test_squeezed_force_spectrum_matches_closed_form(self, defaults, crit_drive):
        p = defaults.replace(g0=1e-6)  # negligible coupling keeps the closed form exact
        rng = np.random.default_rng(74)
        grid = np.linspace(-3 * p.kappa, 3 * p.kappa, 801)
        for _ in range(5):
            ss = kc.steady_at(p, -rng.uniform(0.3, 2.0) * p.kappa,
                              rng.uniform(0.05, 1.0) * crit_drive)
            sq = SqueezeSpec.from_n_s(rng.uniform(0.1, 1.0),
                                      10 ** rng.uniform(-1, 1),
                                      rng.uniform(0, math.pi))
            dm = kc.build_matrix(ss, p)
            corr = kc.input_correlators(p, sq, ss.phi_c)
            num = kc.numeric_spectrum(dm, corr, "ff", grid)
            closed = kc.squeezed_force_spectrum(ss, p, sq, grid)
            assert np.max(np.abs(num.values - closed) / np.abs(closed)) < 1e-8

    def test_one_solve_equals_two_solve_twin(self, defaults):
        # one transfer solve at +w and its adjoint image give the spectra of
        # separate solves at +w and -w
        checked = 0
        for n, (dm, corr) in enumerate(_symmetry_cases(defaults)):
            if not dm.is_stable():
                continue
            p, ss = dm.p, dm.ss
            lines = np.linspace(p.omega_m - 0.1 * p.kappa, p.omega_m + 0.1 * p.kappa, 201)
            grid = np.unique(np.concatenate(
                [np.linspace(-4 * p.kappa, 4 * p.kappa, 401), lines, -lines]))
            sq = SqueezeSpec.from_n_s(0.9, 10 ** (n % 3 - 1), 0.3 * n)
            cases = (("nn", corr), ("bb", corr),
                     ("ff", kc.input_correlators(p, sq, ss.phi_c)))
            for pair, c in cases:
                got = kc.numeric_spectrum(dm, c, pair, grid).values
                twin = _two_solve_spectrum(dm, c, pair, grid)
                assert np.max(np.abs(got - twin)) <= 1e-12 * np.max(np.abs(twin))
            checked += 1
        assert checked >= 8

    def test_decoupled_mech_spectrum_is_thermal(self, defaults, crit_drive):
        p = defaults.without_kerr().replace(g0=0.0)
        ss = kc.steady_at(p, -p.kappa, crit_drive)
        dm = kc.build_matrix(ss, p)
        grid = np.linspace(p.omega_m - 30 * p.gamma_m, p.omega_m + 30 * p.gamma_m, 1001)
        num = kc.numeric_spectrum(dm, kc.input_correlators(p), "bb", grid)
        lorentz = p.gamma_m * p.n_th / ((grid - p.omega_m) ** 2 + p.gamma_m ** 2 / 4)
        assert num.values == pytest.approx(lorentz, rel=1e-10)

    def test_coupled_mech_spectrum_close_to_weak_coupling_form(self, defaults, optimal_state):
        dm = kc.build_matrix(optimal_state, defaults)
        rep = kc.occupation(optimal_state, defaults)
        width = defaults.gamma_m + rep.rates.gamma_opt
        center = defaults.omega_m - rep.sigma_m.real
        grid = np.linspace(center - 20 * width, center + 20 * width, 801)
        num = kc.numeric_spectrum(dm, kc.input_correlators(defaults), "bb", grid)
        closed = kc.mech_noise_spectrum(optimal_state, defaults, grid)
        assert np.max(np.abs(num.values - closed.values) / closed.values.max()) < 0.02

    def test_unstable_point_rejected(self, defaults):
        bi = kc.bifurcation(defaults)
        roots = kc.photon_branches(defaults, -1.4 * defaults.kappa, 2 * bi.n_in_bi)
        middle = state_for_root(defaults, -1.4 * defaults.kappa, 2 * bi.n_in_bi,
                                roots[1][0])
        dm = kc.build_matrix(middle, defaults)
        with pytest.raises(kc.errors.InstabilityError):
            kc.numeric_spectrum(dm, kc.input_correlators(defaults), "nn",
                                np.linspace(-1e6, 1e6, 5))
        with pytest.raises(kc.errors.InstabilityError):
            kc.numeric_occupation(dm, kc.input_correlators(defaults))


class TestNumericOccupation:
    def test_thermal_state(self, defaults, crit_drive):
        p = defaults.replace(g0=0.0)
        ss = kc.steady_at(p, -p.kappa, crit_drive)
        dm = kc.build_matrix(ss, p)
        value, err = kc.numeric_occupation(dm, kc.input_correlators(p))
        assert value == pytest.approx(p.n_th, rel=1e-12)

    def test_defaults_within_two_percent_of_closed_form(self, defaults, optimal_state):
        rep = kc.occupation(optimal_state, defaults)
        dm = kc.build_matrix(optimal_state, defaults)
        value, err = kc.numeric_occupation(dm, kc.input_correlators(defaults))
        assert value == pytest.approx(rep.n_closed, rel=0.02)

    def test_linear_comparison_within_two_percent(self, defaults, crit_drive):
        from kerrcool.sweeps import optimal_detuning
        p = defaults.without_kerr()
        delta, n_m = optimal_detuning(p, crit_drive)
        ss = kc.steady_at(p, delta, crit_drive)
        dm = kc.build_matrix(ss, p)
        value, _ = kc.numeric_occupation(dm, kc.input_correlators(p))
        assert value == pytest.approx(n_m, rel=0.02)


def _mp_occupation(dm, corr):
    """<b+ b> from a 50-digit LU solve of the same 16x16 Lyapunov system
    (M (x) I + I (x) M) vec(Sigma) = -vec(K C K^T), row-major vec."""
    with mpmath.workdps(50):
        m = [[mpmath.mpc(z) for z in row] for row in dm.m]
        k = [mpmath.mpf(float(x)) for x in np.diag(dm.k)]
        lhs = mpmath.matrix(16, 16)
        rhs = mpmath.matrix(16, 1)
        for i in range(4):
            for j in range(4):
                rhs[4 * i + j] = -k[i] * mpmath.mpc(corr[i, j]) * k[j]
                for n in range(4):
                    lhs[4 * i + j, 4 * n + j] += m[i][n]
                    lhs[4 * i + j, 4 * i + n] += m[j][n]
        sigma = mpmath.lu_solve(lhs, rhs)
        return float(mpmath.re(sigma[4 * 3 + 2]))


def _seeded_case(defaults, seed):
    """A stable lower-branch point of a seeded system: g0/2pi 1.7-50 kHz,
    omega_m/kappa 0.05-0.35, detuning -2.5 to -1 kappa, drive 0.05 to
    1 - 1e-7 of the bifurcation flux."""
    rng = np.random.default_rng(seed)
    g0_hz = 10.0 ** rng.uniform(math.log10(1.7e3), math.log10(50e3))
    p = sweeps.sideband_variant(defaults.replace(g0=TAU * g0_hz), rng.uniform(0.05, 0.35))
    n_in = rng.uniform(0.05, 1.0 - 1e-7) * kc.bifurcation(p).n_in_bi
    ss = kc.steady_at(p, -rng.uniform(1.0, 2.5) * p.kappa, n_in)
    return kc.build_matrix(ss, p), kc.input_correlators(p)


def _symmetry_cases(defaults):
    """(drift matrix, correlators) of seeded systems: lower-branch points up
    to 1 - 1e-7 of the bifurcation flux, and the lower and upper roots of
    bistable points at twice the bifurcation flux."""
    cases = [_seeded_case(defaults, seed) for seed in range(80, 88)]
    rng = np.random.default_rng(88)
    while len(cases) < 16:
        p = defaults.replace(g0=TAU * 10.0 ** rng.uniform(3.2, 4.7))
        delta = -rng.uniform(1.25, 1.55) * p.kappa
        n_in = 2.0 * kc.bifurcation(p).n_in_bi
        roots = kc.photon_branches(p, delta, n_in)
        if len(roots) == 3:
            for n_c, _ in (roots[0], roots[2]):
                cases.append((kc.build_matrix(state_for_root(p, delta, n_in, n_c), p),
                              kc.input_correlators(p)))
    return cases


def _two_solve_spectrum(dm, corr, pair, grid):
    """numeric_spectrum with separate response solves at +w and -w."""
    if pair == "bb":
        eye = np.eye(4)
        values = oracle._contract(oracle.transfer(dm, -grid, eye[3]),
                                  oracle.transfer(dm, grid, eye[2]), corr)
    else:
        ph = np.exp(-1j * dm.ss.phi_c)
        left = [ph, np.conj(ph), 0.0, 0.0]
        w_pos, w_neg = oracle.transfer(dm, grid, left), oracle.transfer(dm, -grid, left)
        values = dm.ss.n_c * oracle._contract(w_pos, w_neg, corr)
        if pair == "ff":
            values = dm.p.g0 ** 2 * values
    return np.real(values)


class TestLyapunovOccupation:
    @pytest.mark.parametrize("case", ["optimum", "matched_squeezing", 76, 77])
    def test_matches_50_digit_solve(self, defaults, optimal_state, case):
        if case == "optimum":
            dm, corr = kc.build_matrix(optimal_state, defaults), kc.input_correlators(defaults)
        elif case == "matched_squeezing":
            sq = kc.matched_squeeze(optimal_state, defaults, 0.9)
            dm = kc.build_matrix(optimal_state, defaults)
            corr = kc.input_correlators(defaults, sq, optimal_state.phi_c)
        else:
            dm, corr = _seeded_case(defaults, case)
        assert dm.is_stable()
        value, err = kc.numeric_occupation(dm, corr)
        assert value == pytest.approx(_mp_occupation(dm, corr), rel=1e-12, abs=0.0)
        assert 0.0 <= err < 1e-12 * value


class TestRateFormGap:
    # the rate form is the weak-coupling limit of the linearized model;
    # (n_rate - n_exact) / n_exact at the optimal detuning and critical
    # drive, at the default coupling and at the top of the fig6 axis
    @pytest.mark.parametrize("g0_hz, gap", [(None, -2.609e-4), (35e3, -1.336e-1)])
    def test_gap_against_exact_occupation(self, defaults, g0_hz, gap):
        p = defaults if g0_hz is None else defaults.replace(g0=TAU * g0_hz)
        n_in = kc.critical_power(p)
        delta, n_rate = sweeps.optimal_detuning(p, n_in)
        ss = kc.steady_at(p, delta, n_in)
        exact, _ = kc.numeric_occupation(kc.build_matrix(ss, p), kc.input_correlators(p))
        assert (n_rate - exact) / exact == pytest.approx(gap, rel=0.02)


class TestSpectrumCommand:
    # without --detuning-hz, `spectrum` runs at the cooling optimum of its
    # drive, as `cool` and `squeeze` do, not at Delta_bi, where the drift
    # matrix is marginal (test_marginal_static_mode_at_critical_drive)
    @pytest.mark.parametrize("kind", [["nn"], ["bb"], ["ff", "--xi", "0.9"]],
                             ids=["nn", "bb", "ff"])
    def test_oracle_at_default_operating_point(self, kind, capsys):
        assert run_cli(["spectrum", "--oracle", "--points", "11", "--kind", *kind]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 11
        assert all(math.isfinite(float(row["oracle"])) for row in rows)

    def test_default_detuning_is_the_optimum(self, defaults, crit_drive, capsys):
        assert run_cli(["spectrum", "--points", "11"]) == 0
        default = capsys.readouterr().out
        delta, _ = sweeps.optimal_detuning(defaults, crit_drive)
        assert run_cli(["spectrum", "--points", "11",
                        "--detuning-hz", repr(delta / TAU)]) == 0
        assert capsys.readouterr().out == default
