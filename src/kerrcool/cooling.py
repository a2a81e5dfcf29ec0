"""Effective mechanical dynamics under the cavity interaction.

The cavity enters the mechanical equations through a complex self-energy;
its real part shifts the mechanical frequency, twice its imaginary part is
the optical damping.  Occupations are computed three ways: the closed form
in terms of the effective cooperativity, the rate form from the scattering
rates (`rate_occupation`, its one builder, on floats and arrays alike), and
(in the oracle module) the exact stationary covariance of the linearized
drift matrix.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cavity import RateReport, Spectrum, scattering_rates
from .errors import DomainError, InstabilityError
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
    return _poles_at(p, complex(cavity_self_energy(ss, p, p.omega_m)))


def _poles_at(p: SystemParams, sigma: complex):
    """`mechanical_poles` given sigma = Sigma_c[omega_m]."""
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


def rate_occupation(p: SystemParams, g_s, g_opt, xi: float = 0.0):
    """(n_m, backaction share) of the rate form (gamma_m n_th + (1 - xi) Gamma_S)
    / (gamma_m + Gamma_opt), on floats by plain arithmetic or on arrays: n_th
    where both rates are 0, +inf where not finite and positive, and +inf with
    a nan share where gamma_m + Gamma_opt <= 0."""
    g = (1.0 - xi) * g_s
    denom = p.gamma_m + g_opt
    if isinstance(denom, float):
        if not denom > 0.0:
            return math.inf, math.nan
        if g == 0.0 and g_opt == 0.0:
            return p.n_th, 0.0
        n_m = (p.gamma_m * p.n_th + g) / denom
        return (n_m if math.isfinite(n_m) and n_m > 0.0 else math.inf), g / denom
    with np.errstate(all="ignore"):
        n_m, share = (p.gamma_m * p.n_th + g) / denom, g / denom
    n_m[~((denom > 0.0) & (n_m > 0.0) & (n_m < np.inf))] = np.inf
    if not g_opt.all():   # Gamma_opt = 0 only decoupled or at Delta_eff = 0: mostly skipped
        n_m[(g == 0.0) & (g_opt == 0.0)] = p.n_th
    share[denom <= 0.0] = np.nan
    return n_m, share


def _mech_response(ss: SteadyState, p: SystemParams):
    """The scattering rates, Sigma_c[omega_m] and the mechanical poles of
    one state, each computed once.  InstabilityError on net anti-damping."""
    rates = scattering_rates(ss, p)
    check_net_damping(p, rates.gamma_opt)
    sigma = complex(cavity_self_energy(ss, p, p.omega_m))
    return rates, sigma, _poles_at(p, sigma)


def mech_noise_spectrum(ss: SteadyState, p: SystemParams, grid) -> Spectrum:
    """Mechanical noise spectrum in the weak-coupling, high-Q form: thermal
    and vacuum-squeezing terms dressed by the modified poles plus the cavity
    backaction noise proportional to the Stokes rate.  The numerator stays
    a sum of moduli: expanded into a quadratic in omega it cancels near the
    mechanical peak."""
    if p.g0 > 0.1 * p.kappa:
        warnings.warn("weak-coupling form used outside kappa >> g0", stacklevel=2)
    rates, sigma, poles = _mech_response(ss, p)
    pole_plus, pole_minus = map(complex, poles)
    grid = np.asarray(grid, dtype=float)
    pole_factor = abs((grid - pole_plus) * (grid - pole_minus)) ** 2
    chi_star_inv_neg = p.gamma_m / 2.0 - 1j * (grid + p.omega_m)  # chi_m^{*-1}[-w]
    thermal = p.gamma_m * abs(chi_star_inv_neg + 1j * sigma) ** 2 * p.n_th
    squeeze = p.gamma_m * abs(sigma) ** 2 * (p.n_th + 1.0)
    backaction = abs(chi_star_inv_neg) ** 2 * rates.gamma_stokes
    return Spectrum(grid=grid, values=(thermal + squeeze + backaction) / pole_factor)


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


def occupation(ss: SteadyState, p: SystemParams, xi: float = 0.0) -> CoolingReport:
    """Steady mechanical occupation by the closed and rate forms, under
    optimal-phase, gain-matched squeezing of purity xi (vacuum at xi = 0).

    Squeezing scales the Stokes rate, the backaction term of the closed
    form and the backaction floor by (1 - xi); the optical damping, the
    thermal share and the poles do not move.  Raises InstabilityError on
    net anti-damping.  The two forms are algebraically identical; both are
    reported as a cross-check.
    """
    rates, sigma, poles = _mech_response(ss, p)
    n_rate, share = rate_occupation(p, rates.gamma_stokes, rates.gamma_opt, xi)
    if xi:
        rates = replace(rates, gamma_stokes=(1.0 - xi) * rates.gamma_stokes,
                        gamma_antistokes=rates.gamma_antistokes - xi * rates.gamma_stokes)
    delta_eff, c_eff = ss.delta_eff, rates.c_eff
    thermal = p.n_th / (c_eff + 1.0)
    if delta_eff != 0.0:
        n_ba = squeezed_floor(_backaction_term(p, delta_eff), xi)
        n_closed = thermal + c_eff / (c_eff + 1.0) * n_ba
    else:
        # backaction-evasion point: the 0/0 limit of the second term
        n_ba = math.nan
        n_closed = thermal + share

    return CoolingReport(
        rates=rates, sigma_m=sigma, delta_eff=delta_eff, n_closed=n_closed, n_rate=n_rate,
        n_backaction=n_ba if delta_eff > 0 else math.nan,
        thermal_share=p.gamma_m * p.n_th / (p.gamma_m + rates.gamma_opt),
        backaction_share=share, mech_poles=poles)


def _backaction_term(p: SystemParams, delta_eff):
    """((omega_m - Delta_eff)^2 + kappa^2/4) / (4 omega_m Delta_eff), at
    either sign; squared by products, so floats round like arrays."""
    red = p.omega_m - delta_eff
    return (red * red + p.kappa * p.kappa / 4.0) / (4.0 * p.omega_m * delta_eff)


def backaction_limit(p: SystemParams, delta_eff: float) -> float:
    """Residual occupation from cavity noise at infinite cooperativity:
    ((omega_m - Delta_eff)^2 + kappa^2/4) / (4 omega_m Delta_eff)."""
    if delta_eff <= 0:
        raise DomainError(f"backaction limit needs Delta_eff > 0, got {delta_eff!r}")
    return _backaction_term(p, delta_eff)


def squeezed_floor(n_ba: float, xi: float) -> float:
    """A backaction floor n_ba under gain-matched squeezing of purity xi: (1 - xi) n_ba."""
    return (1.0 - xi) * n_ba


def min_backaction(p: SystemParams):
    """Optimal effective detuning sqrt(kappa^2/4 + omega_m^2) and the
    backaction floor (sqrt(kappa^2/omega_m^2 + 4) - 2) / 4."""
    delta_star = math.sqrt(p.kappa ** 2 / 4.0 + p.omega_m ** 2)
    n_min = (math.sqrt(p.kappa ** 2 / p.omega_m ** 2 + 4.0) - 2.0) / 4.0
    return delta_star, n_min


def ground_state_feasible(p: SystemParams) -> bool:
    """Backaction floor below one phonon: omega_m / kappa > 1 / (4 sqrt(2))."""
    return p.omega_m / p.kappa > 1.0 / (4.0 * math.sqrt(2.0))


def _pole_moments(plus: complex, minus: complex):
    """M_k = int dw/2pi w^k / |(w - W+)(w - W-)|^2 for k = 0, 1, 2.

    |w - W|^2 = |w - conj(W)|^2 on the real axis, so with l1, l2 the
    lower-half-plane members of the two conjugate pole pairs the residue
    sum at conj(l1) and conj(l2), its factor conj(l1) - conj(l2) cancelled
    by hand, is, with s1 = l1 + l2 and s0 = l1 l2,
    (M0, M1, M2) = -(Im s1, Im s0, Im(s0 conj(s1))) / (2 Im l1 Im l2 |conj(l1) - l2|^2);
    it holds at the exceptional point W+ = W-, a double pole, too.
    InstabilityError if a pole is real: the integral diverges."""
    l1 = plus if plus.imag < 0.0 else plus.conjugate()
    l2 = minus if minus.imag < 0.0 else minus.conjugate()
    scale = l1.imag * l2.imag * abs(l1.conjugate() - l2) ** 2
    if not scale > 0.0:
        raise InstabilityError(f"mechanical pole on the real axis ({plus!r}, {minus!r}): "
                               f"the spectrum does not integrate")
    s1, s0 = l1 + l2, l1 * l2
    scale = -0.5 / scale
    return scale * s1.imag, scale * s0.imag, scale * (s0 * s1.conjugate()).imag


def integrate_mech_spectrum(ss: SteadyState, p: SystemParams):
    """Occupation int dw/2pi S(w) of `mech_noise_spectrum`, exact: its
    numerator is the real quadratic a w^2 + b w + c, so the integral is
    a M2 + b M1 + c M0 over the `_pole_moments` of the mechanical poles.
    Returns (value, error_estimate), the estimate a rounding bound of
    8 eps times the summed magnitudes of the three terms."""
    rates, sigma, poles = _mech_response(ss, p)
    gm, om, nth, gs = p.gamma_m, p.omega_m, p.n_th, rates.gamma_stokes
    shift = om - sigma.real
    a = gm * nth + gs
    b = 2.0 * (gm * nth * shift + gs * om)
    c = (gm * nth * ((0.5 * gm - sigma.imag) ** 2 + shift * shift)
         + gm * abs(sigma) ** 2 * (nth + 1.0) + gs * (0.25 * gm * gm + om * om))
    m0, m1, m2 = _pole_moments(*map(complex, poles))
    terms = (a * m2, b * m1, c * m0)
    return sum(terms), 8.0 * np.finfo(float).eps * sum(map(abs, terms))
