"""Squeezed-vacuum drive: cascaded-DPA noise correlators, the squeezed
radiation-pressure force spectrum, optimal squeezing phase, and the
suppressed backaction floor.

The injected field is characterized by white-noise correlators N_s, M_s
(slaved by the pure-DPA identity M_s^2 = N_s(N_s+1)), a squeezing angle,
and a purity 0 <= xi <= 1 absorbing all losses between the amplifier and
the cavity.  At the optimal phase and gain-matched N_s the backaction
floor drops to (1 - xi) times its vacuum value, while the total damping is
untouched by the squeezing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cavity import photon_spectrum_values, spectrum_denominator
from .cooling import backaction_limit, check_net_damping, rate_occupation, squeezed_floor
from .errors import ConfigError, DomainError, InvariantError
from .params import SystemParams
from .steady import SteadyState

LOG10_E = math.log10(math.e)


def correlators_from_chi(kappa: float, chi_abs: float):
    """White-noise correlators of a below-threshold DPA output:
    N_s = (k+^2 - k-^2)^2 / (4 k+^2 k-^2), M_s = (k+^4 - k-^4) / (4 k+^2 k-^2)
    with k_+- = kappa/2 +- |chi|."""
    if not 0.0 <= chi_abs < kappa / 2.0:
        raise DomainError(
            f"DPA below threshold requires 0 <= |chi| < kappa/2, got |chi|={chi_abs!r}"
        )
    kp2 = (kappa / 2.0 + chi_abs) ** 2
    km2 = (kappa / 2.0 - chi_abs) ** 2
    n_s = (kp2 - km2) ** 2 / (4.0 * kp2 * km2)
    m_s = (kp2 ** 2 - km2 ** 2) / (4.0 * kp2 * km2)
    return n_s, m_s


def _check_drive(xi: float, n_s: float) -> None:
    """A purity in [0, 1] and a normal correlator N_s >= 0 whose anomalous
    partner M_s = sqrt(N_s (N_s + 1)) is finite, or ConfigError."""
    if not 0.0 <= xi <= 1.0:
        raise ConfigError(f"purity must lie in [0, 1], got {xi!r}")
    if not n_s >= 0.0:
        raise ConfigError(f"n_s must be >= 0, got {n_s!r}")
    if not math.isfinite(n_s * (n_s + 1.0)):
        raise ConfigError(f"n_s must keep M_s = sqrt(N_s (N_s + 1)) finite, got {n_s!r}")


def squeezing_factor(xi: float, n_s: float) -> float:
    """Squeezing factor r from sinh^2 r = xi N_s."""
    _check_drive(xi, n_s)
    return math.asinh(math.sqrt(xi * n_s))


def n_s_from_factor(xi: float, r: float) -> float:
    """Inverse of squeezing_factor: N_s = sinh^2(r) / xi."""
    if not xi > 0.0:
        raise ConfigError(f"purity xi must be positive to invert the squeezing factor, got {xi!r}")
    return math.sinh(r) ** 2 / xi


def db_from_factor(r: float) -> float:
    """Squeezing strength in decibels: 10 log10(e^{2r})."""
    return 20.0 * r * LOG10_E


def factor_from_db(db: float) -> float:
    return db / (20.0 * LOG10_E)


@dataclass(frozen=True)
class SqueezeSpec:
    """Injected squeezed vacuum: purity, correlators, angle, and strength."""

    xi: float      # purity in [0, 1]
    n_s: float     # normal correlator, >= 0
    m_s: float     # anomalous correlator, sqrt(n_s (n_s + 1))
    phase: float   # squeezing angle (rad)
    r: float       # squeezing factor, sinh^2 r = xi n_s
    db: float      # 10 log10 e^{2r}

    def __post_init__(self):
        _check_drive(self.xi, self.n_s)

    @classmethod
    def from_n_s(cls, xi: float, n_s: float, phase: float = 0.0) -> "SqueezeSpec":
        r = squeezing_factor(xi, n_s)   # checks xi and n_s first
        m_s = math.sqrt(n_s * (n_s + 1.0))
        return cls(xi=xi, n_s=n_s, m_s=m_s, phase=phase, r=r, db=db_from_factor(r))

    @classmethod
    def from_db(cls, xi: float, db: float, phase: float = 0.0) -> "SqueezeSpec":
        try:
            n_s = n_s_from_factor(xi, factor_from_db(db))
        except OverflowError:
            n_s = math.inf
        if n_s == math.inf:
            raise ConfigError(f"squeeze_db must keep N_s = sinh^2(r) / xi finite,"
                              f" got {db!r} dB at purity {xi!r}")
        return cls.from_n_s(xi, n_s, phase)

    @classmethod
    def from_chi(cls, xi: float, kappa: float, chi_abs: float,
                 phase: float = 0.0) -> "SqueezeSpec":
        n_s, m_s = correlators_from_chi(kappa, chi_abs)
        if not abs(m_s ** 2 - n_s * (n_s + 1.0)) <= 1e-12 * max(1.0, m_s ** 2):
            raise InvariantError(
                f"DPA correlators break M_s^2 = N_s(N_s+1): N_s={n_s!r}, M_s={m_s!r}")
        r = squeezing_factor(xi, n_s)
        return cls(xi=xi, n_s=n_s, m_s=m_s, phase=phase, r=r, db=db_from_factor(r))

    @classmethod
    def vacuum(cls) -> "SqueezeSpec":
        return cls(xi=0.0, n_s=0.0, m_s=0.0, phase=0.0, r=0.0, db=0.0)

    def with_phase(self, phase: float) -> "SqueezeSpec":
        return replace(self, phase=phase)

    def to_dict(self) -> dict:
        return {"xi": self.xi, "n_s": self.n_s, "m_s": self.m_s,
                "phase_rad": self.phase, "r": self.r, "db": self.db}


def squeezed_force_spectrum(ss: SteadyState, p: SystemParams, sq: SqueezeSpec, omega):
    """Radiation-pressure force spectrum under squeezed-vacuum input.

    The vacuum spectrum g0^2 S_nn[w] is boosted by the thermal-like
    correlator N_s (weighted by the sideband ratio) and carries a
    phase-sensitive M_s interference term.  Reduces to g0^2 S_nn at xi = 0;
    the difference S_FF[w_m] - S_FF[-w_m] is squeezing-independent.
    """
    omega = np.asarray(omega, dtype=float)
    d_eff = ss.delta_eff
    s0 = p.g0 ** 2 * photon_spectrum_values(omega, ss, p)
    ratio = (((omega - d_eff) ** 2 + p.kappa ** 2 / 4.0)
             / ((omega + d_eff) ** 2 + p.kappa ** 2 / 4.0))
    base = s0 * (1.0 + (1.0 + ratio) * sq.xi * sq.n_s)
    # interference numerator carries the spectrum's own g0^2 n_c kappa scale;
    # sign chosen so the optimal phase below minimizes the Stokes rate
    pref = p.g0 ** 2 * ss.n_c * p.kappa
    cross_num = ((omega ** 2 + p.kappa ** 2 / 4.0 - d_eff ** 2) * math.cos(2.0 * sq.phase)
                 + p.kappa * d_eff * math.sin(2.0 * sq.phase))
    cross = -2.0 * sq.xi * sq.m_s * pref * cross_num / spectrum_denominator(omega, ss, p)
    return base + cross


def squeezed_rates(ss: SteadyState, p: SystemParams, sq: SqueezeSpec):
    """(Stokes, anti-Stokes, total damping) under squeezed input."""
    gamma_s = float(squeezed_force_spectrum(ss, p, sq, -p.omega_m))
    gamma_as = float(squeezed_force_spectrum(ss, p, sq, p.omega_m))
    return gamma_s, gamma_as, gamma_as - gamma_s


def optimal_phase(ss: SteadyState, p: SystemParams) -> float:
    """Squeezing angle minimizing the Stokes rate:
    1/2 atan2(kappa Delta_eff, omega_m^2 - Delta_eff^2 + kappa^2/4),
    reduced to [0, pi)."""
    d_eff = ss.delta_eff
    phi = 0.5 * math.atan2(p.kappa * d_eff,
                           p.omega_m ** 2 - d_eff ** 2 + p.kappa ** 2 / 4.0)
    return phi % math.pi


def sideband_asymmetry(ss: SteadyState, p: SystemParams) -> float:
    """wp^2 = ((Delta_eff - omega_m)^2 + kappa^2/4)
    / ((Delta_eff + omega_m)^2 + kappa^2/4), the Stokes/anti-Stokes weight
    ratio governing the required squeezing gain."""
    d_eff = ss.delta_eff
    return (((d_eff - p.omega_m) ** 2 + p.kappa ** 2 / 4.0)
            / ((d_eff + p.omega_m) ** 2 + p.kappa ** 2 / 4.0))


def matched_squeeze(ss: SteadyState, p: SystemParams, xi: float) -> SqueezeSpec:
    """SqueezeSpec with gain matched to the operating point
    (wp = sqrt(N_s/(N_s+1))) at the optimal phase."""
    wp2 = sideband_asymmetry(ss, p)
    if not wp2 < 1.0:
        raise InvariantError(f"sideband ratio wp^2 = {wp2!r} >= 1: needs Delta_eff, omega_m > 0")
    n_s = wp2 / (1.0 - wp2)
    return SqueezeSpec.from_n_s(xi, n_s, optimal_phase(ss, p))


def squeezed_backaction(ss: SteadyState, p: SystemParams, xi: float):
    """Backaction floor under optimal-phase, gain-matched squeezed input.

    Returns (n_ba_squeezed, wp, n_s_opt, r, db); the floor is (1 - xi)
    times the vacuum backaction limit.  The gain comes from
    `matched_squeeze`, so a heating-side point raises its InvariantError.
    """
    sq = matched_squeeze(ss, p, xi)
    wp = math.sqrt(sideband_asymmetry(ss, p))
    return squeezed_floor(backaction_limit(p, ss.delta_eff), xi), wp, sq.n_s, sq.r, sq.db


def occupation_with_squeezing(ss: SteadyState, p: SystemParams, sq: SqueezeSpec) -> float:
    """`rate_occupation` of the squeezed rates (Gamma_S^sq, Gamma_tot); squeezing leaves
    Gamma_tot equal to Gamma_opt, so the net-damping check is the unsqueezed one."""
    gamma_s_sq, _, gamma_tot = squeezed_rates(ss, p, sq)
    check_net_damping(p, gamma_tot)
    return rate_occupation(p, gamma_s_sq, gamma_tot)[0]
