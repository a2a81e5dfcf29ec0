"""Linearized fluctuation analysis of the driven Kerr cavity alone.

Covers the driven susceptibility, the asymmetric photon-number spectrum,
its pole structure (including the exceptional points where the two poles
coalesce), the truncated moment-based skewness used to quantify the
spectral asymmetry, and the Stokes / anti-Stokes scattering rates.
`rates` is the one home of the closed-form Stokes rate and optical damping;
`scattering_rates` and the sweep kernels take theirs from it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DomainError, InstabilityError, InvariantError
from .params import SystemParams
from .steady import SteadyState
from . import steady as _steady


@dataclass(frozen=True)
class Spectrum:
    """Spectral density sampled on a strictly increasing angular grid."""

    grid: np.ndarray     # rad/s
    values: np.ndarray   # 1/(rad/s), same normalization as the rates

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise DomainError("grid and values must be matching 1-D arrays")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


class PoleRegion(enum.Enum):
    SPLIT_FREQUENCIES = "split_frequencies"
    SPLIT_DECAYS = "split_decays"
    EXCEPTIONAL_POINT = "exceptional_point"


@dataclass(frozen=True)
class PoleStructure:
    """The two poles of the cavity photon-number spectrum."""

    poles: tuple          # (Omega_+, Omega_-) complex rad/s
    region: PoleRegion
    radicand: float       # (Delta + 3|Lambda|)(Delta + |Lambda|)
    decay_extremum_residual: float  # relative residual of n_c/Delta = -2/(3K)
    at_decay_extremum: bool


@dataclass(frozen=True)
class RateReport:
    """Stokes / anti-Stokes scattering rates and the derived optical damping."""

    gamma_stokes: float      # rad/s
    gamma_antistokes: float  # rad/s
    gamma_opt: float         # rad/s, closed form; == AS - S
    c_eff: float             # gamma_opt / gamma_m


def bare_susceptibility_inv(omega, delta_tilde: float, kappa: float):
    """Inverse cavity susceptibility -i(omega + Delta~) + kappa/2."""
    return -1j * (np.asarray(omega, dtype=float) + delta_tilde) + kappa / 2.0


def driven_susceptibility(omega, ss: SteadyState, p: SystemParams):
    """Parametric-amplifier-dressed susceptibility of the driven Kerr cavity:
    chi_c / (1 - |Lambda|^2 chi_c[omega] chi_c*[-omega])."""
    omega = np.asarray(omega, dtype=float)
    chi = 1.0 / bare_susceptibility_inv(omega, ss.delta_tilde, p.kappa)
    chi_conj_neg = np.conj(1.0 / bare_susceptibility_inv(-omega, ss.delta_tilde, p.kappa))
    return chi / (1.0 - ss.lambda_abs ** 2 * chi * chi_conj_neg)


def spectrum_denominator(omega, ss: SteadyState, p: SystemParams):
    """Quartic denominator [Delta~^2 - w^2 + kappa^2/4 - |Lambda|^2]^2
    + kappa^2 w^2 of the photon and the squeezed force spectra.  The state's
    fields may be floats or arrays; their squares are products, so both
    round alike."""
    omega = np.asarray(omega, dtype=float)
    w2 = omega * omega
    return _quartic(w2, w2 * p.kappa ** 2, ss, p)


def _quartic(w2, kw2, ss: SteadyState, p: SystemParams, out=None):
    """`spectrum_denominator` from w2 = w*w and kw2 = kappa^2 w2, written
    into the buffer `out` where one is given."""
    dt, lam = ss.delta_tilde, ss.lambda_abs
    den = np.subtract(dt * dt, w2, out=out)
    den += p.kappa ** 2 / 4.0
    den -= lam * lam
    den *= den
    den += kw2
    return den


def is_parametrically_stable(ss: SteadyState, p: SystemParams) -> bool:
    """Both spectrum poles in the lower half plane:
    |Lambda|^2 <= Delta~^2 + kappa^2/4."""
    dt, lam = ss.delta_tilde, ss.lambda_abs
    return lam * lam <= dt * dt + p.kappa ** 2 / 4.0


def photon_spectrum_values(omega, ss: SteadyState, p: SystemParams):
    """Photon-number spectral density S_nn[omega] of the driven Kerr cavity:

        n_c kappa ([-Delta~ + w + |Lambda|]^2 + kappa^2/4) /
        ([Delta~^2 - w^2 + kappa^2/4 - |Lambda|^2]^2 + kappa^2 w^2)

    on floats or arrays of omega and of the state's fields.  Squares are
    products: a 0-d operand would otherwise square through `pow`, which
    rounds some squares differently from an array's product.
    """
    omega = np.asarray(omega, dtype=float)
    return _spectrum_over(omega, spectrum_denominator(omega, ss, p), ss, p)


def _spectrum_over(omega, den, ss: SteadyState, p: SystemParams, out=None):
    """`photon_spectrum_values` given its denominator `den`, which is
    divided out in place, written into the buffer `out` where one is
    given."""
    num = np.add(-ss.delta_tilde, omega, out=out)
    num += ss.lambda_abs
    num *= num
    num += p.kappa ** 2 / 4.0
    num *= ss.n_c * p.kappa
    num /= den
    return num


def _require_stable(ss: SteadyState, p: SystemParams):
    if not is_parametrically_stable(ss, p):
        raise InstabilityError(
            "parametric instability: |Lambda|^2 > Delta~^2 + kappa^2/4; "
            "spectrum poles cross into the upper half plane"
        )


def photon_spectrum(ss: SteadyState, p: SystemParams, grid) -> Spectrum:
    """Evaluate S_nn on a grid, rejecting dynamically unstable points."""
    _require_stable(ss, p)
    grid = np.asarray(grid, dtype=float)
    return Spectrum(grid=grid, values=photon_spectrum_values(grid, ss, p))


#: Relative tolerance for flagging the decay-rate extremum condition
#: n_c / Delta = -2 / (3 K); the cube-root critical scaling keeps the
#: residual at a few 1e-3 even at drives 1e-7 below bifurcation.
DECAY_EXTREMUM_TOL = 1e-2


def _pole_radicand(p: SystemParams, delta, lam):
    """(Delta + 3|Lambda|)(Delta + |Lambda|), the squared pole splitting, and
    the mask of exceptional points, where it vanishes to 1e-12 of
    max(kappa^2, Delta^2); on floats or arrays."""
    radicand = (delta + 3.0 * lam) * (delta + lam)
    return radicand, abs(radicand) <= 1e-12 * np.maximum(p.kappa ** 2, delta * delta)


def cavity_poles(ss: SteadyState, p: SystemParams) -> PoleStructure:
    """Poles Omega_+- = -i kappa/2 +- sqrt((Delta+3|Lambda|)(Delta+|Lambda|))
    with region classification and the decay-extremum diagnostic."""
    radicand, exceptional = _pole_radicand(p, ss.detuning, ss.lambda_abs)
    root = np.sqrt(complex(radicand))
    poles = (-0.5j * p.kappa + root, -0.5j * p.kappa - root)
    if exceptional:
        region = PoleRegion.EXCEPTIONAL_POINT
    elif radicand > 0:
        region = PoleRegion.SPLIT_FREQUENCIES
    else:
        region = PoleRegion.SPLIT_DECAYS

    if p.kerr > 0 and ss.detuning != 0:
        target = -2.0 / (3.0 * p.kerr)
        residual = abs(ss.n_c / ss.detuning - target) / abs(target)
    else:
        residual = math.inf
    return PoleStructure(
        poles=poles,
        region=region,
        radicand=radicand,
        decay_extremum_residual=residual,
        at_decay_extremum=residual < DECAY_EXTREMUM_TOL,
    )


def pole_columns(p: SystemParams, delta, n_c):
    """`cavity_poles` on arrays of lower-branch points: |Re Omega_+|,
    Im Omega_+, Im Omega_- and the region value, from the same radicand
    and exceptional-point mask."""
    radicand, exceptional = _pole_radicand(p, delta, p.kerr * n_c)
    split = np.sqrt(np.abs(radicand))
    decay = np.where(radicand < 0, split, 0.0)
    region = np.where(exceptional, PoleRegion.EXCEPTIONAL_POINT.value,
                      np.where(radicand > 0, PoleRegion.SPLIT_FREQUENCIES.value,
                               PoleRegion.SPLIT_DECAYS.value))
    return (np.where(radicand > 0, split, 0.0), -0.5 * p.kappa + decay,
            -0.5 * p.kappa - decay, region)


def exceptional_points(p: SystemParams, n_in: float):
    """Self-consistent detunings where the spectrum poles coalesce.

    The poles meet where Delta = -m |Lambda| = -m K n_c, m = 1 or 3.  Put
    into the photon cubic, that leaves (K_eff - mK)^2 n^3 + (kappa^2/4) n
    = kappa n_in, increasing in n, with one positive root n*.  Scaled by
    n = n0 x, n0 = 4 n_in/kappa and eps = 4 (K_eff - mK)^2 n0^2/kappa^2,
    it reads eps x^3 + x - 1 = 0, whose root
    x = 2 sinh(asinh(1.5 sqrt(3 eps))/3) / sqrt(3 eps), x = 1 at eps = 0,
    neither cancels nor overflows.  Delta* = -mK n* counts only where n*
    is the lowest root of the photon cubic at Delta* (the lower branch)
    and Delta* lies in (-10 kappa, -1e-6 kappa).

    Returns (delta_minus, delta_plus), the m = 1 point (closer to
    resonance) and the m = 3 one; either is None where it does not count,
    and both are None without intrinsic Kerr or without drive.  A ConfigError
    names a drive that `steady.checked_drive` refuses.
    """
    _steady.checked_drive(p, 0.0, n_in)
    if p.kerr == 0.0 or n_in == 0.0:
        # |Lambda| = K n_c vanishes: the poles never coalesce
        return None, None
    k_eff = _steady.effective_kerr(p)
    n0 = 4.0 * n_in / p.kappa
    out = []
    for m in (1.0, 3.0):
        # sqrt(3 eps), unsquared so that it cannot overflow first
        s = math.sqrt(3.0) * abs(2.0 * (k_eff - m * p.kerr) * n0 / p.kappa)
        n = n0 if s == 0.0 else n0 * (2.0 * math.sinh(math.asinh(1.5 * s) / 3.0) / s)
        delta = -m * p.kerr * n
        out.append(delta if -10.0 * p.kappa < delta < -1e-6 * p.kappa
                   and _is_lowest_root(k_eff, delta, p.kappa, n_in, n) else None)
    return out[0], out[1]


def _is_lowest_root(k_eff: float, delta: float, kappa: float, n_in: float, n: float) -> bool:
    """Whether the positive root n of the photon cubic at delta is its
    lowest real root.  The other two roots n2 <= n3 have the sum and
    product below, by Vieta; n is the lowest unless they are real and
    n2 < n, and n2 >= n holds where total >= 2n and
    (n - n2)(n - n3) = n^2 - total n + product >= 0."""
    total = -2.0 * delta / k_eff - n
    product = kappa * n_in / (k_eff * k_eff * n)
    return (total * total < 4.0 * product
            or (total >= 2.0 * n and n * n - total * n + product >= 0.0))


def skewness(spec: Spectrum) -> float:
    """Truncated moment-based skewness of the sampled spectral values:
    sum((x - mu)^3) / (n sigma^3) over x = values.  The moments are
    products of the deviations, which round as `x.std()` does and spare
    the third power its `pow` call."""
    return _skewness(spec.values)


def _skewness(x, dev=None, pw=None) -> float:
    """`skewness` of the values x, with the deviations and their powers
    written into the buffers `dev` (which may be x itself) and `pw` where
    they are given."""
    dev = np.subtract(x, x.mean(), out=dev)
    pw = np.multiply(dev, dev, out=pw)
    sigma = math.sqrt(np.mean(pw))
    if sigma == 0.0:
        raise DegenerateSpectrumError("degenerate spectrum: zero variance")
    pw *= dev
    return float(np.mean(pw) / sigma ** 3)


#: The skewness diagnostic is defined on a fixed window of +-100 mechanical
#: frequencies sampled uniformly; 20001 points converge the linear-cavity
#: baseline to three significant figures.
SKEWNESS_SPAN_OMEGA_M = 100.0
SKEWNESS_POINTS = 20001


def skewness_grid(p: SystemParams) -> np.ndarray:
    span = SKEWNESS_SPAN_OMEGA_M * p.omega_m
    return np.linspace(-span, span, SKEWNESS_POINTS)


class SkewnessWorkspace:
    """The skewness of many states on the `skewness_grid` of p, each equal
    bit for bit to skewness(photon_spectrum(ss, p, grid)), in grid-sized
    buffers allocated once: w^2 and kappa^2 w^2 of the grid, the spectrum
    and its moments.  A state allocates nothing grid-sized, which the heap
    would hand back to the system and page in again for the next one.
    The spectrum reads kappa alone of p, so the states of p.without_kerr()
    share the workspace of p."""

    def __init__(self, p: SystemParams):
        self.p = p
        self.grid = skewness_grid(p)
        self._w2 = self.grid * self.grid
        self._kw2 = self._w2 * p.kappa ** 2
        self._values = np.empty_like(self.grid)
        self._moments = np.empty_like(self.grid)

    def skewness(self, ss: SteadyState) -> float:
        _require_stable(ss, self.p)
        den = _quartic(self._w2, self._kw2, ss, self.p, out=self._moments)
        x = _spectrum_over(self.grid, den, ss, self.p, out=self._values)
        return _skewness(x, dev=x, pw=den)


def effective_skewness(p: SystemParams, n_in: float, delta: float) -> float:
    """Spectrum skewness relative to the linear-cavity (K = 0) baseline
    computed on the identical grid at the same drive and detuning."""
    skew = SkewnessWorkspace(p)
    return (skew.skewness(_steady.steady_at(p, delta, n_in))
            - skew.skewness(_steady.steady_at(p.without_kerr(), delta, n_in)))


def _squares(p):
    """(g0^2, omega_m^2, kappa^2) of p by the float `** 2`: the one rounding
    of these squares in every rate, lanes of arrays included, which carry
    each system's floats as columns."""
    return p.g0 ** 2, p.omega_m ** 2, p.kappa ** 2


def _rate_parts(p, sq, delta, n_c):
    """|Lambda| = K n_c, Delta~, and the core and the denominator of the
    spectrum at +-omega_m: the pieces `rates` and `rate_slopes` share."""
    _, om2, ka2 = sq
    lam = p.kerr * n_c
    dt = delta + 2.0 * lam
    core = dt * dt - om2 + ka2 / 4.0 - lam * lam
    return lam, dt, core, core * core + ka2 * om2


def rates(p: SystemParams, delta, n_c):
    """Closed-form (Gamma_S, Gamma_opt) at bare detuning `delta` and photon
    number `n_c`, on floats or arrays, with the intrinsic-Kerr parametric
    strength |Lambda| = K n_c: Gamma_S = g0^2 S_nn[-omega_m] and
    Gamma_opt = Gamma_AS - Gamma_S.  Squares are products, so floats round
    like arrays."""
    return _rates(p, _squares(p), delta, n_c)


def _rates(p, sq, delta, n_c):
    """`rates` given `_squares(p)`; the fields of p may be arrays of lanes."""
    g02, _, ka2 = sq
    lam, dt, _, den = _rate_parts(p, sq, delta, n_c)
    d_eff = lam - dt
    red = d_eff - p.omega_m
    g_s = g02 * n_c * p.kappa * (red * red + ka2 / 4.0) / den
    g_opt = 4.0 * g02 * n_c * d_eff * p.kappa * p.omega_m / den
    return g_s, g_opt


def rate_slopes(p: SystemParams, delta, n_c, d_delta, d_n):
    """Directional derivative (dGamma_S, dGamma_opt) of `rates` when the
    detuning moves by `d_delta` and the photon number by `d_n`; plain
    arithmetic, so it serves floats and arrays as `rates` does."""
    return _rate_slopes(p, _squares(p), delta, n_c, d_delta, d_n)


def _rate_slopes(p, sq, delta, n_c, d_delta, d_n):
    """`rate_slopes` given `_squares(p)`; the fields of p may be arrays."""
    g02, _, ka2 = sq
    lam, dt, core, den = _rate_parts(p, sq, delta, n_c)
    d_lam = p.kerr * d_n
    d_dt = d_delta + 2.0 * d_lam
    d_eff, dd_eff = lam - dt, d_lam - d_dt
    # d(den)/den, with d(core) = 2 (Delta~ dDelta~ - |Lambda| d|Lambda|)
    d_log_den = 4.0 * core * (dt * d_dt - lam * d_lam) / den
    red = d_eff - p.omega_m
    lorentz = red * red + ka2 / 4.0
    dg_s = g02 * p.kappa * (d_n * lorentz + n_c * (2.0 * red * dd_eff
                                                   - lorentz * d_log_den)) / den
    dg_opt = 4.0 * g02 * p.kappa * p.omega_m * (
        d_n * d_eff + n_c * (dd_eff - d_eff * d_log_den)) / den
    return dg_s, dg_opt


def rates_agree(gamma_s, gamma_opt, gamma_as):
    """The closed-form Gamma_S + Gamma_opt against the spectrum's Gamma_AS,
    to 1e-10 of Gamma_AS + Gamma_S, on floats or arrays.  The guard is
    scale-aware because Gamma_opt cancels near the backaction-evasion
    point."""
    return abs(gamma_s + gamma_opt - gamma_as) <= 1e-10 * (gamma_as + gamma_s + 1e-300)


def scattering_rates(ss: SteadyState, p: SystemParams) -> RateReport:
    """Stokes rate and optical damping from `rates`, anti-Stokes rate
    g0^2 S_nn[+omega_m] from the spectrum; the two routes agree to rounding."""
    gamma_s, gamma_opt = rates(p, ss.detuning, ss.n_c)
    gamma_as = p.g0 ** 2 * float(photon_spectrum_values(p.omega_m, ss, p))
    if not rates_agree(gamma_s, gamma_opt, gamma_as):
        raise InvariantError(
            f"closed-form anti-Stokes rate {gamma_s + gamma_opt!r} disagrees with "
            f"the spectrum value {gamma_as!r}")
    return RateReport(
        gamma_stokes=gamma_s,
        gamma_antistokes=gamma_as,
        gamma_opt=gamma_opt,
        c_eff=gamma_opt / p.gamma_m,
    )
