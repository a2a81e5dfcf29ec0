"""The one rate-form builder, `cooling.rate_occupation`, and the one
backaction term, `cooling._backaction_term`, against test-local copies of
the formulas they replaced: the ranking-grid kernel, the scalar lane, the
profile columns, the cooling report and the squeezed occupation, and the
backaction floor.  Results must be `==`, on floats and on arrays, except
where the change is intended: at g0 = 0 the lane, the ranking grid and the
squeezed occupation now return n_th exactly, and the floor squares by
products where it squared through `pow`."""
import math

import numpy as np
import pytest

import kerrcool as kc
from kerrcool import cavity, cooling, squeezing, steady, sweeps
from kerrcool.errors import InstabilityError
from kerrcool.params import CRITICAL_POWER_FRACTION, TAU

XIS = (0.0, 0.44, 0.9, 0.99)


# ----------------------------------------------------------------------
# the formulas as they were written before `rate_occupation`

def _old_profile(p, g_s, g_opt, xi):
    """`sweeps._occupation_profile`'s n_m."""
    denom = p.gamma_m + g_opt
    with np.errstate(all="ignore"):
        n_m = (p.gamma_m * p.n_th + (1.0 - xi) * g_s) / denom
    bad = (denom <= 0.0) | ~np.isfinite(n_m) | (n_m <= 0.0)
    return np.where(bad, np.inf, n_m)


def _old_lane(p, delta, n_in, xi, along_flux):
    """`sweeps._occupation_lane`."""
    (g_s, g_opt), (dg_s, dg_opt) = sweeps._rates_and_slopes(p, delta, n_in, along_flux)
    denom = p.gamma_m + g_opt
    if not denom > 0.0:
        return math.inf, math.nan
    n_m = (p.gamma_m * p.n_th + (1.0 - xi) * g_s) / denom
    slope = ((1.0 - xi) * dg_s - n_m * dg_opt) / denom
    return (n_m if math.isfinite(n_m) and n_m > 0.0 else math.inf), slope


def _old_columns(p, g_s, g_opt):
    """`sweeps._profile_columns`' n_m, share and damped columns."""
    n_m = _old_profile(p, g_s, g_opt, 0.0)
    denom = p.gamma_m + g_opt
    damped = denom > 0.0
    n_m = np.where((g_s == 0.0) & (g_opt == 0.0), p.n_th, np.where(damped, n_m, np.nan))
    with np.errstate(divide="ignore", invalid="ignore"):
        share = g_s / denom
    return n_m, share, damped


def _old_report(p, rates, xi):
    """`cooling.occupation`'s (n_rate, backaction_share, thermal_share)
    from the vacuum rates."""
    g_s = (1.0 - xi) * rates.gamma_stokes if xi else rates.gamma_stokes
    damping = p.gamma_m + rates.gamma_opt
    if rates.gamma_opt == 0.0 and g_s == 0.0:
        n_rate = p.n_th
    else:
        n_rate = (p.gamma_m * p.n_th + g_s) / damping
    return n_rate, g_s / damping, p.gamma_m * p.n_th / damping


def _old_floor(p, delta_eff):
    """`backaction_limit` and its copy inlined in `cooling.occupation`."""
    return ((p.omega_m - delta_eff) ** 2 + p.kappa ** 2 / 4.0) / (4.0 * p.omega_m * delta_eff)


def _old_squeezed(p, gamma_s_sq, gamma_tot):
    """`squeezing.occupation_with_squeezing` after its damping check."""
    return (p.gamma_m * p.n_th + gamma_s_sq) / (p.gamma_m + gamma_tot)


def _squares_agree(p, delta_eff):
    """Whether `pow` squares the floor's two terms as products do."""
    red = p.omega_m - delta_eff
    return red ** 2 == red * red and p.kappa ** 2 == p.kappa * p.kappa


def _same(a, b) -> bool:
    """Bit-equal floats, nan equal to nan."""
    return a == b or (math.isnan(a) and math.isnan(b))


# ----------------------------------------------------------------------
# seeded systems and states

def _systems(defaults):
    """The default system, its linear cavity, decoupled ones (g0 = 0) and
    seeded sideband variants, each with and without the intrinsic Kerr."""
    out = [defaults, defaults.without_kerr(), defaults.replace(g0=0.0),
           defaults.without_kerr().replace(g0=0.0)]
    rng = np.random.default_rng(26)
    for _ in range(5):
        p = sweeps.sideband_variant(
            defaults.replace(g0=TAU * 10.0 ** rng.uniform(math.log10(1.7e3), math.log10(50e3))),
            10.0 ** rng.uniform(math.log10(0.02), math.log10(2.0)))
        out += [p, p.without_kerr()]
    return out


def _drives(p):
    """A weak drive, half the bifurcation flux and the critical drive."""
    n_in_bi = steady.bifurcation(p).n_in_bi if p.g0 > 0.0 or p.kerr > 0.0 else 1e15
    return [1e-2 * n_in_bi, 0.5 * n_in_bi, CRITICAL_POWER_FRACTION * n_in_bi]


def _deltas(p):
    """Red detunings across the search window, blue ones (anti-damped at
    strong drive) and zero detuning (Delta_eff = 0 in a linear cavity)."""
    return np.concatenate([np.linspace(*sweeps.detuning_window(p), 9),
                           np.linspace(0.05, 1.5, 4) * p.kappa, [0.0]])


def _near_cusp(defaults):
    """States within 1e-6 kappa of the bifurcation detuning, 1e-7 below
    the bifurcation drive."""
    bi = steady.bifurcation(defaults)
    n_in = CRITICAL_POWER_FRACTION * bi.n_in_bi
    return [(defaults, bi.delta_bi + s * 1e-6 * defaults.kappa, n_in) for s in (-1.0, 0.0, 1.0)]


def _points(defaults):
    for p in _systems(defaults):
        for n_in in _drives(p):
            for d in _deltas(p).tolist():
                yield p, d, n_in
    yield from _near_cusp(defaults)


# ----------------------------------------------------------------------

class TestRateOccupation:
    def test_floats_and_arrays_round_alike(self, defaults):
        # on the seeded grids and on edge rates: decoupled, Delta_eff = 0
        # (Gamma_opt = 0), zero damping, anti-damping, nan and overflow
        cases = []
        for p in _systems(defaults):
            for n_in in _drives(p):
                deltas = _deltas(p)
                n_c = steady.lower_branch_array(p, deltas, n_in)
                cases.append((p, *cavity.rates(p, deltas, n_c)))
        g = defaults.gamma_m
        cases.append((defaults, np.array([0.0, 5.0 * g, 5.0 * g, 5.0 * g, math.nan, 1e308, 0.0]),
                      np.array([0.0, 0.0, -g, -3.0 * g, g, -g * (1.0 - 1e-12), 2.0 * g])))
        cases.append((defaults.replace(n_th=0.0), np.array([0.0, 0.0, g]), np.array([0.0, g, g])))
        for p, g_s, g_opt in cases:
            for xi in XIS:
                n_arr, share_arr = cooling.rate_occupation(p, g_s, g_opt, xi)
                for i, (s, o) in enumerate(zip(g_s.tolist(), g_opt.tolist())):
                    n_m, share = cooling.rate_occupation(p, s, o, xi)
                    assert type(n_m) is float or n_m == p.n_th
                    assert _same(n_m, float(n_arr[i])) and _same(share, float(share_arr[i]))

    def test_policy_on_edge_rates(self, defaults):
        p, g = defaults, defaults.gamma_m
        assert cooling.rate_occupation(p, 0.0, 0.0) == (p.n_th, 0.0)
        assert cooling.rate_occupation(p.replace(n_th=0.0), 0.0, 0.0) == (0.0, 0.0)
        # the squeezed Stokes rate is what vanishes at xi = 1
        assert cooling.rate_occupation(p, 3.0 * g, 0.0, 1.0) == (p.n_th, 0.0)
        for g_opt in (-g, -3.0 * g, math.nan):
            n_m, share = cooling.rate_occupation(p, 5.0 * g, g_opt)
            assert n_m == math.inf and math.isnan(share)
        assert cooling.rate_occupation(p, 1e308, -g * (1.0 - 1e-12)) == (math.inf, math.inf)
        assert cooling.rate_occupation(p.replace(n_th=0.0), 0.0, g) == (math.inf, 0.0)

    def test_ranking_grids_equal_old_kernel(self, defaults):
        for p in _systems(defaults):
            for n_in in _drives(p):
                deltas = _deltas(p)
                g_s, g_opt = cavity.rates(p, deltas, steady._lower_closed_form(p, deltas, n_in))
                for xi in XIS:
                    got = cooling.rate_occupation(p, g_s, g_opt, xi)[0]
                    if p.g0 == 0.0:
                        assert (got == p.n_th).all()
                    else:
                        assert np.array_equal(got, _old_profile(p, g_s, g_opt, xi))

    def test_lane_keeps_its_bits(self, defaults):
        finite = 0
        for p, d, n_in in _points(defaults):
            for xi in XIS:
                for along_flux in (False, True):
                    old = _old_lane(p, d, n_in, xi, along_flux)
                    got = sweeps._occupation_lane(p, d, n_in, xi, along_flux)
                    if p.g0 == 0.0:
                        assert got == (p.n_th, 0.0)
                    elif math.isfinite(old[0]):
                        finite += 1
                        assert got[0] == old[0] and _same(got[1], old[1])
                    else:
                        assert got[0] == math.inf
        assert finite > 1000

    def test_profile_columns_equal_old_mapping(self, defaults):
        for p in _systems(defaults):
            for n_in in _drives(p):
                deltas = _deltas(p)
                cols = sweeps._profile_columns(p, deltas, n_in)
                n_m, share, damped = _old_columns(p, cols["g_s"], cols["g_opt"])
                assert np.array_equal(cols["n_m"], n_m, equal_nan=True)
                assert np.array_equal(cols["damped"], damped)
                assert np.array_equal(cols["share"][damped], share[damped])
                assert np.isnan(cols["share"][~damped]).all()

    def test_report_equals_old_formulas(self, defaults):
        seen = {"anti-damped": 0, "delta_eff = 0": 0, "floor off pow": 0}
        for p, d, n_in in _points(defaults):
            ss = kc.steady_at(p, d, n_in)
            rates = cavity.scattering_rates(ss, p)
            for xi in XIS:
                if not p.gamma_m + rates.gamma_opt > 0.0:
                    seen["anti-damped"] += 1
                    with pytest.raises(InstabilityError):
                        kc.occupation(ss, p, xi)
                    continue
                rep = kc.occupation(ss, p, xi)
                n_rate, share, thermal_share = _old_report(p, rates, xi)
                assert (rep.n_rate, rep.backaction_share, rep.thermal_share) == (
                    n_rate, share, thermal_share)
                c_eff, d_eff = rates.c_eff, ss.delta_eff
                thermal = p.n_th / (c_eff + 1.0)
                if d_eff == 0.0:
                    seen["delta_eff = 0"] += 1
                    assert rep.n_closed == thermal + share and math.isnan(rep.n_backaction)
                    continue
                floor = (1.0 - xi) * cooling._backaction_term(p, d_eff)
                assert rep.n_closed == thermal + c_eff / (c_eff + 1.0) * floor
                if d_eff > 0.0:
                    assert rep.n_backaction == floor
                    assert squeezing.squeezed_backaction(ss, p, xi)[0] == floor
                if _squares_agree(p, d_eff):
                    assert floor == (1.0 - xi) * _old_floor(p, d_eff)
                else:
                    seen["floor off pow"] += 1
        assert seen["anti-damped"] > 0 and seen["delta_eff = 0"] > 0

    def test_squeezed_occupation_equals_old_formula(self, defaults):
        for p, d, n_in in _points(defaults):
            ss = kc.steady_at(p, d, n_in)
            if not ss.delta_eff > 0.0:
                continue   # matched squeezing needs the cooling side
            for xi in XIS:
                sq = kc.matched_squeeze(ss, p, xi)
                gamma_s_sq, _, gamma_tot = kc.squeezed_rates(ss, p, sq)
                if not p.gamma_m + gamma_tot > 0.0:
                    continue
                got = kc.occupation_with_squeezing(ss, p, sq)
                if p.g0 == 0.0:
                    assert got == p.n_th
                else:
                    assert got == _old_squeezed(p, gamma_s_sq, gamma_tot)


class TestBackactionTerm:
    def test_products_against_pow(self, defaults):
        # the floor squares by products, so a float rounds as its array
        # twin; libm `pow` squares differently now and then, which moves
        # the old floor by at most an ulp or two
        rng = np.random.default_rng(2026)
        moved = 0
        for p in _systems(defaults):
            d_eff = np.concatenate([10.0 ** rng.uniform(-3.0, 1.0, 20000) * p.kappa,
                                    -10.0 ** rng.uniform(-3.0, 1.0, 2000) * p.kappa]).tolist()
            got = [cooling._backaction_term(p, d) for d in d_eff]
            assert got == cooling._backaction_term(p, np.array(d_eff)).tolist()
            assert [kc.backaction_limit(p, d) for d in d_eff[:20000]] == got[:20000]
            for d, new_floor in zip(d_eff, got):
                old = _old_floor(p, d)
                if new_floor != old:
                    moved += 1
                    assert not _squares_agree(p, d)
                    assert abs(new_floor - old) <= 2.0 * math.ulp(old)
        # the float-array check above would see a square taken by `pow`
        assert 0 < moved < 1e-3 * 22000 * len(_systems(defaults))

    def test_limit_refuses_non_positive_detuning(self, defaults):
        for d in (0.0, -1.0):
            with pytest.raises(kc.errors.DomainError):
                kc.backaction_limit(defaults, d)
        assert cooling._backaction_term(defaults, -defaults.omega_m) < 0.0
