"""Effective mechanical dynamics under the cavity interaction.

The cavity enters the mechanical equations through a complex self-energy;
its real part shifts the mechanical frequency, twice its imaginary part is
the optical damping.  Occupations are computed three ways: the closed form
in terms of the effective cooperativity, the rate form from the scattering
rates, and (in the oracle module) the exact stationary covariance of the
linearized drift matrix.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cavity import RateReport, Spectrum, scattering_rates
from .errors import InstabilityError
from .params import SystemParams
from .steady import SteadyState


def cavity_self_energy(ss: SteadyState, p: SystemParams, omega):
    """Complex cavity self-energy
    2 |G|^2 (|Lambda| - Delta~) / ((-i w + kappa/2)^2 + Delta~^2 - |Lambda|^2)."""
    omega = np.asarray(omega, dtype=float)
    num = 2.0 * ss.g_abs ** 2 * (ss.lambda_abs - ss.delta_tilde)
    den = (-1j * omega + p.kappa / 2.0) ** 2 + ss.delta_tilde ** 2 - ss.lambda_abs ** 2
    return num / den


@dataclass(frozen=True)
class SelfEnergy:
    """Callable wrapper around the cavity self-energy of one steady state."""

    ss: SteadyState
    p: SystemParams

    def value_at(self, omega):
        return cavity_self_energy(self.ss, self.p, omega)

    __call__ = value_at

    @property
    def delta_eff(self) -> float:
        return self.ss.delta_eff

    def modified_frequency(self, omega):
        """omega_m - Re Sigma_c[omega]."""
        return self.p.omega_m - np.real(self.value_at(omega))

    def modified_damping(self, omega):
        """gamma_m + 2 Im Sigma_c[omega]."""
        return self.p.gamma_m + 2.0 * np.imag(self.value_at(omega))


def mechanical_poles(ss: SteadyState, p: SystemParams):
    """Poles Omega_m,+- = -i gamma_m/2 +- sqrt(omega_m^2 - 2 omega_m Sigma_c[omega_m])
    of the simplified mechanical noise spectrum."""
    sigma = complex(cavity_self_energy(ss, p, p.omega_m))
    root = np.sqrt(complex(p.omega_m ** 2 - 2.0 * p.omega_m * sigma))
    base = -0.5j * p.gamma_m
    return (base + root, base - root)


def check_net_damping(p: SystemParams, gamma_opt: float):
    """InstabilityError unless the total damping gamma_m + Gamma_opt of the
    resonant line stays positive (net anti-damping is an instability)."""
    if p.gamma_m + gamma_opt <= 0.0:
        raise InstabilityError(
            f"net mechanical anti-damping: gamma_m + Gamma_opt = "
            f"{p.gamma_m + gamma_opt:.6g} <= 0"
        )


def _mech_spectrum_evaluator(ss: SteadyState, p: SystemParams):
    """Closure evaluating the weak-coupling mechanical spectrum on a float
    array or on one plain float.  Every constant it closes over is a Python
    float or complex, so a float argument (as quadrature passes) runs as
    plain Python arithmetic and returns a float; an array runs in numpy."""
    rates = scattering_rates(ss, p)
    check_net_damping(p, rates.gamma_opt)
    sigma = complex(cavity_self_energy(ss, p, p.omega_m))
    pole_plus, pole_minus = map(complex, mechanical_poles(ss, p))

    def values(grid):
        pole_factor = abs((grid - pole_plus) * (grid - pole_minus)) ** 2
        chi_star_inv_neg = p.gamma_m / 2.0 - 1j * (grid + p.omega_m)  # chi_m^{*-1}[-w]
        thermal = p.gamma_m * abs(chi_star_inv_neg + 1j * sigma) ** 2 * p.n_th
        squeeze = p.gamma_m * abs(sigma) ** 2 * (p.n_th + 1.0)
        backaction = abs(chi_star_inv_neg) ** 2 * rates.gamma_stokes
        return (thermal + squeeze + backaction) / pole_factor

    return values, rates, sigma


def mech_noise_spectrum(ss: SteadyState, p: SystemParams, grid) -> Spectrum:
    """Mechanical noise spectrum in the weak-coupling, high-Q form: thermal
    and vacuum-squeezing terms dressed by the modified poles plus the cavity
    backaction noise proportional to the Stokes rate."""
    if p.g0 > 0.1 * p.kappa:
        warnings.warn("weak-coupling form used outside kappa >> g0", stacklevel=2)
    values, _, _ = _mech_spectrum_evaluator(ss, p)
    grid = np.asarray(grid, dtype=float)
    return Spectrum(grid=grid, values=values(grid))


@dataclass(frozen=True)
class CoolingReport:
    """Cooling figures of merit at one operating point."""

    rates: RateReport
    sigma_m: complex          # Sigma_c[omega_m]
    delta_eff: float          # |Lambda| - Delta~
    n_closed: float           # cooperativity closed form
    n_rate: float             # rate form (canonical)
    n_backaction: float       # infinite-cooperativity limit at delta_eff
    thermal_share: float      # gamma_m n_th / (gamma_m + Gamma_opt)
    backaction_share: float   # Gamma_S / (gamma_m + Gamma_opt)
    mech_poles: tuple         # (Omega_m+, Omega_m-)
    n_oracle: float | None = None   # to_dict key; `cool --oracle` sets it in the payload

    def to_dict(self) -> dict:
        return {
            "gamma_stokes_rad_s": self.rates.gamma_stokes,
            "gamma_antistokes_rad_s": self.rates.gamma_antistokes,
            "gamma_opt_rad_s": self.rates.gamma_opt,
            "c_eff": self.rates.c_eff,
            "sigma_m_re_rad_s": self.sigma_m.real,
            "sigma_m_im_rad_s": self.sigma_m.imag,
            "delta_eff_rad_s": self.delta_eff,
            "n_closed": self.n_closed,
            "n_rate": self.n_rate,
            "n_backaction": self.n_backaction,
            "thermal_share": self.thermal_share,
            "backaction_share": self.backaction_share,
            "n_oracle": self.n_oracle,
        }


def occupation(ss: SteadyState, p: SystemParams) -> CoolingReport:
    """Steady mechanical occupation by the closed and rate forms.

    Raises InstabilityError on net anti-damping.  The two forms are
    algebraically identical; both are reported as a cross-check.
    """
    rates = scattering_rates(ss, p)
    check_net_damping(p, rates.gamma_opt)
    sigma = complex(cavity_self_energy(ss, p, p.omega_m))
    delta_eff = ss.delta_eff
    c_eff = rates.c_eff

    if rates.gamma_opt == 0.0 and rates.gamma_stokes == 0.0:
        n_rate = p.n_th  # decoupled oscillator: exactly thermal
    else:
        n_rate = (p.gamma_m * p.n_th + rates.gamma_stokes) / (p.gamma_m + rates.gamma_opt)
    thermal = p.n_th / (c_eff + 1.0)
    if delta_eff != 0.0:
        ba_coeff = ((p.omega_m - delta_eff) ** 2 + p.kappa ** 2 / 4.0) / (4.0 * p.omega_m * delta_eff)
        n_closed = thermal + c_eff / (c_eff + 1.0) * ba_coeff
    else:
        # backaction-evasion point: the 0/0 limit of the second term
        n_closed = thermal + rates.gamma_stokes / (p.gamma_m + rates.gamma_opt)
    n_ba = backaction_limit(p, delta_eff) if delta_eff > 0 else math.nan

    return CoolingReport(
        rates=rates,
        sigma_m=sigma,
        delta_eff=delta_eff,
        n_closed=n_closed,
        n_rate=n_rate,
        n_backaction=n_ba,
        thermal_share=p.gamma_m * p.n_th / (p.gamma_m + rates.gamma_opt),
        backaction_share=rates.gamma_stokes / (p.gamma_m + rates.gamma_opt),
        mech_poles=mechanical_poles(ss, p),
    )


def backaction_limit(p: SystemParams, delta_eff: float) -> float:
    """Residual occupation from cavity noise at infinite cooperativity:
    ((omega_m - Delta_eff)^2 + kappa^2/4) / (4 omega_m Delta_eff)."""
    if delta_eff <= 0:
        raise ValueError(f"backaction limit needs Delta_eff > 0, got {delta_eff!r}")
    return ((p.omega_m - delta_eff) ** 2 + p.kappa ** 2 / 4.0) / (4.0 * p.omega_m * delta_eff)


def min_backaction(p: SystemParams):
    """Optimal effective detuning sqrt(kappa^2/4 + omega_m^2) and the
    backaction floor (sqrt(kappa^2/omega_m^2 + 4) - 2) / 4."""
    delta_star = math.sqrt(p.kappa ** 2 / 4.0 + p.omega_m ** 2)
    n_min = (math.sqrt(p.kappa ** 2 / p.omega_m ** 2 + 4.0) - 2.0) / 4.0
    return delta_star, n_min


def ground_state_feasible(p: SystemParams) -> bool:
    """Backaction floor below one phonon: omega_m / kappa > 1 / (4 sqrt(2))."""
    return p.omega_m / p.kappa > 1.0 / (4.0 * math.sqrt(2.0))


#: Quadrature window half-width in units of the total mechanical linewidth,
#: and the relative tolerance of each window's adaptive quadrature.
QUAD_WINDOW_LINEWIDTHS = 1e4
QUAD_RTOL = 1e-6


def quadrature_segments(center: float, half: float):
    """Integration segments around the two resonant lines at +-center.

    When the windows overlap (wide lines in the unresolved regime) they are
    merged so no frequency range is counted twice.  Returns
    (segments, outer_edge) with each segment carrying its interior line
    positions as quadrature breakpoints.
    """
    if half >= center:
        return [(-center - half, center + half, [-center, center])], center + half
    return ([(-center - half, -center + half, [-center]),
             (center - half, center + half, [center])], center + half)


def integrate_mech_spectrum(ss: SteadyState, p: SystemParams):
    """Occupation from adaptive quadrature of the closed-form mechanical
    noise spectrum over both resonant lines plus a coarse tail scan.
    Returns (value, error_estimate)."""
    # the one scipy import of the package: no other path pays its start-up
    from scipy.integrate import quad

    values, rates, sigma = _mech_spectrum_evaluator(ss, p)
    width = p.gamma_m + abs(rates.gamma_opt)
    center = p.omega_m - sigma.real

    total, err = 0.0, 0.0
    segments, edge = quadrature_segments(center, QUAD_WINDOW_LINEWIDTHS * width)
    for lo, hi, pts in segments:
        val, e = quad(values, lo, hi, points=pts, limit=400, epsrel=QUAD_RTOL)
        total += val
        err += e
    # coarse tails out to +-20 kappa: the spectrum decays like 1/w^2 there
    tail_grid = np.geomspace(edge, 20.0 * p.kappa + edge, 200)
    for sgn in (1.0, -1.0):
        g = np.sort(sgn * tail_grid)
        total += np.trapezoid(values(g), g)
    return total / (2.0 * math.pi), err / (2.0 * math.pi)


def pole_moment_integrals_closed(ss: SteadyState, p: SystemParams):
    """Closed forms of the three pole-factor moment integrals
    int dw/2pi w^k / |(w - W+)(w - W-)|^2 for k = 0, 1, 2, valid for
    effective cooperativity above one."""
    c = scattering_rates(ss, p).c_eff
    gm, om = p.gamma_m, p.omega_m
    i0 = c / (2.0 * om ** 2 * gm * (c ** 2 - 1.0))
    i1 = 1.0 / (2.0 * om * gm * (1.0 - c ** 2))
    i2 = c * (1.0 - (gm / (2.0 * om)) ** 2) / (2.0 * gm * (c ** 2 - 1.0))
    return i0, i1, i2
