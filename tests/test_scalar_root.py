"""The scalar lower root against the vector kernel and a 50-digit
reference, the unpolished closed-form roots against the same reference,
the scalar occupation probe against the profile, CSV quoting, and the CLI
exit codes of malformed sweep specs and spectrum grids."""
import csv
import io
import math

import mpmath
import numpy as np
import pytest

import kerrcool as kc
from kerrcool import steady, sweeps
from kerrcool.cli import run_cli
from kerrcool.errors import InvariantError
from kerrcool.io import rows_to_csv
from kerrcool.params import CRITICAL_POWER_FRACTION, TAU

#: Agreement of the scalar occupation and rate probes with the profile
#: kernel (relative); the lower roots themselves agree bit for bit.
SCALAR_VECTOR_RTOL = 1e-12
#: Agreement of the scalar lower root with the 50-digit root (relative).
MPMATH_RTOL = 1e-11
#: Agreement of the unpolished lower root with the 50-digit root at the
#: edges of the appF detuning window (relative).  Measured worst: 2.3e-10,
#: in linear-comparison mode at g0/2pi = 2 kHz and Delta = -3.1 kappa.
WINDOW_EDGE_RTOL = 4e-10
#: Agreement of the three unpolished roots of a bistable point with the
#: 50-digit roots (relative).  Measured worst: 2.5e-15.
BISTABLE_RTOL = 1e-14


def _variants(defaults, rng, count):
    """Seeded systems: three couplings, omega_m/kappa in [0.02, 2], both
    modes (the linear comparison keeps only the mechanical Kerr)."""
    for g0_hz in (1.7e3, 15e3, 35e3):
        for linear in (False, True):
            for _ in range(count):
                p = sweeps.sideband_variant(defaults.replace(g0=TAU * g0_hz),
                                            rng.uniform(0.02, 2.0))
                yield p.without_kerr() if linear else p


def _sample_points(defaults, seed=2024, count=60):
    """(p, delta, n_in): broad drives 1e-4..3x the bifurcation drive, and
    drives down to 1 - 1e-13 of it within 1e-12 relative of Delta_bi."""
    rng = np.random.default_rng(seed)
    for p in _variants(defaults, rng, count):
        bi = steady.bifurcation(p)
        yield (p, -rng.uniform(0.0, 4.0) * p.kappa,
               bi.n_in_bi * 10.0 ** rng.uniform(-4.0, math.log10(3.0)))
        yield (p, bi.delta_bi * (1.0 + rng.uniform(-1e-12, 1e-12)),
               bi.n_in_bi * (1.0 - 10.0 ** rng.uniform(-13.0, -1.0)))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestScalarRoot:
    def test_matches_vector_kernel(self, defaults):
        for p, delta, n_in in _sample_points(defaults):
            vec = float(steady.lower_branch_array(p, np.array([delta]), n_in)[0])
            assert steady.lower_root(p, delta, n_in) == vec

    def test_matches_vector_kernel_on_a_grid(self, defaults, crit_drive):
        deltas = np.linspace(-4.0 * defaults.kappa, 0.5 * defaults.kappa, 301)
        for n_in in (1e-4 * crit_drive, crit_drive, 3.0 * crit_drive):
            vec = steady.lower_branch_array(defaults, deltas, n_in)
            scalar = [steady.lower_root(defaults, d, n_in) for d in deltas]
            assert scalar == vec.tolist()

    def test_zero_drive(self, defaults):
        assert steady.lower_root(defaults, -1e6, 0.0) == 0.0

    def test_linear_cavity_lorentzian(self, defaults, crit_drive):
        p = defaults.without_kerr().replace(g0=0.0)
        assert kc.effective_kerr(p) == 0.0
        for delta in (-2.0 * p.kappa, -0.3 * p.kappa, 0.0, 0.7 * p.kappa):
            vec = steady.lower_branch_array(p, np.array([delta]), crit_drive)[0]
            assert steady.lower_root(p, delta, crit_drive) == vec

    def test_lower_root_of_photon_branches(self, defaults, crit_drive):
        for delta in np.linspace(-3.0 * defaults.kappa, -0.02 * defaults.kappa, 40):
            for n_in in (0.3 * crit_drive, crit_drive, 2.0 * crit_drive):
                lowest = kc.photon_branches(defaults, delta, n_in)[0][0]
                assert steady.lower_root(defaults, delta, n_in) == lowest

    @staticmethod
    def _mpmath_lower(p, delta, n_in):
        """Lower root of the photon cubic at the same float inputs, in 50
        digits, with the condition number 2 kappa n_in / (n |f'(n)|) that
        bounds what a polish in a given precision can reach."""
        with mpmath.workdps(50):
            K, d, ka, f = (mpmath.mpf(x) for x in (kc.effective_kerr(p), delta, p.kappa, n_in))
            roots = mpmath.polyroots([K * K, 2 * d * K, d * d + ka * ka / 4, -ka * f],
                                     maxsteps=200, extraprec=200)
            ref = min(mpmath.re(r) for r in roots
                      if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30 * abs(r))
            slope = (d + K * ref) * (d + 3 * K * ref) + ka * ka / 4
            return ref, float(2 * ka * f / (ref * abs(slope)))

    def _cusp_errors(self, systems, rng):
        for p in systems:
            bi = steady.bifurcation(p)
            for exponent in (-13, -12, -11, -9, -7, -4):
                delta = bi.delta_bi * (1.0 + rng.uniform(-1e-12, 1e-12))
                n_in = bi.n_in_bi * (1.0 - 10.0 ** exponent)
                ref, cond = self._mpmath_lower(p, delta, n_in)
                yield float(abs(steady.lower_root(p, delta, n_in) - ref) / ref), cond

    def test_near_cusp_against_mpmath(self, defaults):
        rng = np.random.default_rng(7)
        errors = [err for err, _ in self._cusp_errors([defaults] * 4, rng)]
        assert max(errors) <= MPMATH_RTOL

    def test_near_cusp_limiting_accuracy(self, defaults):
        # across systems the error tracks the conditioning of the nearly
        # triple root: a few longdouble ulps times the condition number,
        # plus the final rounding to float64.  At drives 1e-12 below
        # bifurcation this reaches about 1.2e-11 on some systems.
        rng = np.random.default_rng(8)
        eps = float(np.finfo(np.longdouble).eps)
        for err, cond in self._cusp_errors(_variants(defaults, rng, 3), rng):
            assert err <= 4.0 * eps * cond + 2.0 ** -53


def _mpmath_roots(p, delta, n_in):
    """The real roots of the photon cubic at the same float inputs, in 50
    digits, ascending."""
    with mpmath.workdps(50):
        K, d, ka, f = (mpmath.mpf(x) for x in (kc.effective_kerr(p), delta, p.kappa, n_in))
        roots = mpmath.polyroots([K * K, 2 * d * K, d * d + ka * ka / 4, -ka * f],
                                 maxsteps=200, extraprec=200)
        return sorted(mpmath.re(r) for r in roots
                      if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30 * abs(r))


class TestUnpolishedRoot:
    def test_scalar_lower_root_is_the_grid_root(self, defaults):
        # both paths take numpy's cube root; math.cbrt differs in the last bit
        for p, delta, n_in in _sample_points(defaults):
            grid = steady._lower_closed_form(p, np.array([delta]), n_in)[0]
            k_eff = kc.effective_kerr(p)
            assert steady._real_roots(k_eff, delta, p.kappa, n_in)[0] == grid

    def test_window_edges_against_mpmath(self, defaults):
        # the two outermost detunings on each side of an appF map cell's grid
        worst = 0.0
        for g0_hz in (2e3, 5e4):
            for omega_frac in np.linspace(0.05, 0.35, 12):
                variant = sweeps.sideband_variant(defaults.replace(g0=TAU * g0_hz), omega_frac)
                for mode in sweeps.Mode:
                    p, n_in = sweeps._equal_drive_target(variant, mode, CRITICAL_POWER_FRACTION)
                    grid = np.linspace(*sweeps.detuning_window(p), sweeps.PROFILE_POINTS // 2)
                    edges = grid[[0, 1, -2, -1]]
                    for d, n in zip(edges, steady._lower_closed_form(p, edges, n_in)):
                        ref = _mpmath_roots(p, d, n_in)[0]
                        worst = max(worst, float(abs(n - ref) / ref))
        assert worst <= WINDOW_EDGE_RTOL

    def test_near_cusp_against_mpmath(self, defaults):
        # unpolished, the nearly triple root is as good as its conditioning
        # allows in float64: the rounding of the resolvent pair, times the
        # condition number
        rng = np.random.default_rng(9)
        eps = float(np.finfo(float).eps)
        for p in _variants(defaults, rng, 2):
            bi = steady.bifurcation(p)
            for exponent in (-13, -11, -9, -7, -5):
                delta = bi.delta_bi * (1.0 + rng.uniform(-1e-12, 1e-12))
                n_in = bi.n_in_bi * (1.0 - 10.0 ** exponent)
                ref, cond = TestScalarRoot._mpmath_lower(p, delta, n_in)
                n = steady._lower_closed_form(p, np.array([delta]), n_in)[0]
                assert float(abs(n - ref) / ref) <= eps * cond + 2.0 ** -53

    def test_bistable_roots_against_mpmath(self, defaults):
        rng = np.random.default_rng(12)
        worst = 0.0
        for p in _variants(defaults, rng, 2):
            bi = steady.bifurcation(p)
            n_in = bi.n_in_bi * rng.uniform(2.0, 3.0)
            k_eff = kc.effective_kerr(p)
            deltas = np.linspace(-4.0 * p.kappa, bi.delta_bi, 400)
            three = [d for d in deltas if steady.cubic_discriminant_rel(p, d, n_in) < 0.0]
            for delta in three[::len(three) // 6]:
                roots = steady._real_roots(k_eff, delta, p.kappa, n_in)
                ref = _mpmath_roots(p, delta, n_in)
                assert len(roots) == len(ref) == 3
                worst = max(worst, max(float(abs(x - r) / r) for x, r in zip(roots, ref)))
        assert worst <= BISTABLE_RTOL


def _profile_at(p, d, n_in, xi=0.0):
    """`_occupation_profile` at one detuning on the polished vector root:
    (n_m, Gamma_S, Gamma_opt)."""
    deltas = np.array([d])
    n_c = steady.lower_branch_array(p, deltas, n_in)
    return [col[0] for col in sweeps._occupation_profile(p, deltas, n_c, xi)]


class TestScalarProbes:
    def test_occupation_probe_matches_profile(self, defaults):
        infeasible = 0
        rng = np.random.default_rng(11)
        for p, delta, n_in in _sample_points(defaults, seed=11, count=10):
            for d in (delta, rng.uniform(0.05, 1.0) * p.kappa):
                vec = _profile_at(p, d, n_in)[0]
                got = sweeps._occupation_lane(p, d, n_in)[0]
                if math.isinf(vec):
                    infeasible += 1
                    assert got == math.inf
                else:
                    assert _rel(got, vec) <= SCALAR_VECTOR_RTOL
        assert infeasible > 0   # the blue-detuned probes are anti-damped

    def test_squeezed_occupation_probe(self, defaults, crit_drive):
        bi = steady.bifurcation(defaults)
        for d in np.linspace(1.2 * bi.delta_bi, 0.8 * bi.delta_bi, 11):
            vec = _profile_at(defaults, d, crit_drive, 0.9)[0]
            got = sweeps._occupation_lane(defaults, d, crit_drive, 0.9)[0]
            assert got == vec or _rel(got, vec) <= SCALAR_VECTOR_RTOL

    def test_cooperativity_probe_matches_profile(self, defaults, crit_drive):
        for d in np.linspace(-3.0 * defaults.kappa, 0.5 * defaults.kappa, 23):
            # C_eff = Gamma_opt / gamma_m, from the grid column and a point solve
            g_opt = _profile_at(defaults, d, crit_drive)[2]
            (_, got), _ = sweeps._rates_and_slopes(defaults, d, crit_drive, along_flux=False)
            assert _rel(got / defaults.gamma_m, g_opt / defaults.gamma_m) \
                <= SCALAR_VECTOR_RTOL


class TestInvariants:
    def test_heating_side_squeeze_is_typed(self, defaults, crit_drive):
        ss = kc.steady_at(defaults, 0.5 * defaults.kappa, 0.1 * crit_drive)
        assert ss.delta_eff < 0
        with pytest.raises(InvariantError):
            kc.matched_squeeze(ss, defaults, 0.9)


class TestCsvQuoting:
    def test_comma_in_error_round_trips(self):
        rows = [{"a": 1.5, "error": "bracket (0.05, 0.35)", "b": True},
                {"a": 2.0, "error": 'say "no"', "b": False}]
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == "a,error,b"
        assert text.splitlines()[1] == '1.5,"bracket (0.05, 0.35)",true'
        back = list(csv.reader(io.StringIO(text)))
        assert back == [["a", "error", "b"],
                        ["1.5", "bracket (0.05, 0.35)", "true"],
                        ["2", 'say "no"', "false"]]

    def test_plain_rows_stay_bare(self):
        text = rows_to_csv([{"x": 1.0, "y": None, "z": "ok"}])
        assert text == "x,y,z\n1,,ok\n"

    def test_no_crossing_message_has_plain_floats(self, defaults):
        with pytest.raises(kc.errors.KerrcoolError, match=r"bracket \(0\.05, 0\.35\)$"):
            sweeps.ground_state_onset_omega(defaults, TAU * 2e3, sweeps.Mode.NONLINEAR,
                                            bracket=(np.float64(0.05), np.float64(0.35)))


class TestCliExitCodes:
    def test_unknown_mode_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("kind = sideband_sweep\nmode = bogus\nomega_frac = 0.1, 0.2, 2\n")
        assert run_cli(["sweep", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "Traceback" not in err

    @pytest.mark.parametrize("points", ["0", "1", "-3", "x"])
    def test_spectrum_points_below_two_is_usage_error(self, points, capsys):
        assert run_cli(["spectrum", "--points", points]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--points" in captured.err

    def test_spectrum_two_points(self, capsys):
        assert run_cli(["spectrum", "--points", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_spectrum_subnormal_span_that_resolves(self, capsys):
        # the least span that resolves depends on --points
        assert run_cli(["spectrum", "--omega-span-hz", "1e-310", "--points", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
