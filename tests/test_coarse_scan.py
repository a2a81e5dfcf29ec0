"""The power optimizer's coarse flux scan, ranked in blocks of fluxes,
against the same scan made one flux at a time: every row of the blocked
closed form and every per-flux minimum must be bit-identical."""
import math

import numpy as np

from kerrcool import cavity, cooling, steady, sweeps
from kerrcool.params import TAU

#: Drive caps of the scan, as `optimize_operating_point` takes them.
CAPS = (0.5, 0.9999999)
#: Multiples of a system's own bifurcation flux used as the scan's n_in_bi.
#: Beyond 1 the grid reaches the bistable region, where the ranking root is
#: Viete's (D <= 0).
DRIVE_SCALES = (1.0, 3.0)
#: Fluxes per block of the scan: `PROFILE_POINTS // (PROFILE_POINTS // 8)`.
BLOCK = 8


def _systems(defaults, count=6):
    """The default system, then seeded systems: g0/2pi 1.7-50 kHz and
    omega_m/kappa 0.02-2, log-uniform; each with and without the intrinsic
    Kerr."""
    rng = np.random.default_rng(24)
    g0_hz = 10.0 ** rng.uniform(math.log10(1.7e3), math.log10(50e3), count)
    omega_fracs = 10.0 ** rng.uniform(math.log10(0.02), math.log10(2.0), count)
    for p in [defaults] + [sweeps.sideband_variant(defaults.replace(g0=TAU * g), w)
                           for g, w in zip(g0_hz, omega_fracs)]:
        yield p
        yield p.without_kerr()


def _per_flux_envelope(p, coarse, fluxes, xi):
    """The coarse envelope one flux at a time, as the scan was written
    before it was blocked."""
    return np.array([
        np.min(cooling.rate_occupation(
            p, *cavity.rates(p, coarse, steady._lower_closed_form(p, coarse, f)), xi)[0])
        for f in fluxes])


def _scan_grids(p, cap, scale):
    fluxes = (np.geomspace(1e-3, cap, sweeps.POWER_GRID_POINTS)
              * scale * steady.bifurcation(p).n_in_bi)
    coarse = np.linspace(*sweeps.detuning_window(p), sweeps.PROFILE_POINTS // 8)
    return fluxes, coarse


def test_broadcast_rows_equal_scalar_drives(defaults):
    for p in _systems(defaults):
        for cap in CAPS:
            for scale in DRIVE_SCALES:
                fluxes, coarse = _scan_grids(p, cap, scale)
                rows = steady._lower_closed_form(p, coarse, fluxes[:, None])
                assert rows.shape == (len(fluxes), len(coarse))
                for j, f in enumerate(fluxes):
                    np.testing.assert_array_equal(
                        rows[j], steady._lower_closed_form(p, coarse, f))


def test_broadcast_rows_linear_cavity(defaults):
    # K_eff = 0 takes the Lorentzian shortcut, which broadcasts as well
    p = defaults.replace(g0=0.0).without_kerr()
    coarse = np.linspace(*sweeps.detuning_window(p), 50)
    fluxes = np.geomspace(1e10, 1e16, 5)
    rows = steady._lower_closed_form(p, coarse, fluxes[:, None])
    for j, f in enumerate(fluxes):
        np.testing.assert_array_equal(rows[j], steady._lower_closed_form(p, coarse, f))


def test_blocked_envelope_equals_per_flux(defaults):
    viete_blocks = 0
    for p in _systems(defaults):
        k_eff = steady.effective_kerr(p)
        for cap in CAPS:
            for scale in DRIVE_SCALES:
                fluxes, coarse = _scan_grids(p, cap, scale)
                for xi in (0.0, 0.9):
                    blocked = sweeps._coarse_envelope(p, coarse, fluxes, xi)
                    np.testing.assert_array_equal(
                        blocked, _per_flux_envelope(p, coarse, fluxes, xi))
                for i in range(0, len(fluxes), BLOCK):
                    disc = steady._resolvent(k_eff, coarse, p.kappa,
                                             fluxes[i:i + BLOCK, None])[2]
                    viete_blocks += bool(np.any(disc <= 0.0))
    # the blocked Viete branch is exercised, not only Cardano's
    assert viete_blocks > 0


def test_block_is_at_most_one_ranking_grid(defaults, monkeypatch):
    shapes = []
    closed_form = steady._lower_closed_form

    def recording(p, deltas, n_in):
        out = closed_form(p, deltas, n_in)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(steady, "_lower_closed_form", recording)
    fluxes, coarse = _scan_grids(defaults, CAPS[1], 1.0)
    sweeps._coarse_envelope(defaults, coarse, fluxes, 0.0)
    assert shapes == [(BLOCK, len(coarse))] * (len(fluxes) // BLOCK)
    assert all(rows * cols <= sweeps.PROFILE_POINTS for rows, cols in shapes)

