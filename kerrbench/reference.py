"""Independent reference for the benchmark's output checks.

Nothing here imports kerrcool.  The physics is written out again from the
model equations, with the photon cubic solved in 50-digit arithmetic:

    n [(Delta + K_eff n)^2 + kappa^2/4] = kappa n_in
    K_eff = K + 2 g0^2 omega_m / (omega_m^2 + gamma_m^2/4)
    |Lambda| = K n,  Delta~ = Delta + 2 |Lambda|
    S_nn[w] = n kappa ((w - Delta~ + |Lambda|)^2 + kappa^2/4)
              / ((Delta~^2 - w^2 + kappa^2/4 - |Lambda|^2)^2 + kappa^2 w^2)
    Gamma_S = g0^2 S_nn[-omega_m],  Gamma_AS = g0^2 S_nn[+omega_m]
    n_m = (gamma_m n_th + (1 - xi) Gamma_S) / (gamma_m + Gamma_AS - Gamma_S)

All frequencies are angular (rad/s).  A float, vectorized version of the
same lower-root solve serves the dense scans, where 50 digits would be
too slow and 1e-4 relative is all a check needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np

TAU = 2.0 * math.pi
DIGITS = 50
#: Drive fraction of the bifurcation flux used by every equal-drive dataset.
CAP = 0.9999999


@dataclass(frozen=True)
class System:
    omega_m: float
    gamma_m: float
    kappa: float
    kerr: float
    g0: float
    n_th: float

    @property
    def k_eff(self) -> float:
        return self.kerr + 2.0 * self.g0 ** 2 * self.omega_m / (
            self.omega_m ** 2 + self.gamma_m ** 2 / 4.0)

    def linear(self) -> "System":
        """Intrinsic Kerr off; the mechanical Kerr stays in the cubic."""
        return replace(self, kerr=0.0)

    def with_g0(self, g0: float) -> "System":
        return replace(self, g0=g0)

    def sideband(self, omega_frac: float) -> "System":
        """omega_m = omega_frac * kappa at the bath temperature of self:
        n_th' = 1 / ((1 + 1/n_th)^(omega'/omega) - 1)."""
        omega = omega_frac * self.kappa
        n_th = 1.0 / math.expm1(omega / self.omega_m * math.log1p(1.0 / self.n_th))
        return replace(self, omega_m=omega, n_th=n_th)


def default_system() -> System:
    """f_m 0.3 MHz, gamma_m 0.5 Hz, kappa 3 MHz, Kerr 0.16 MHz, g0 1.7 kHz,
    2778 bath phonons."""
    return System(omega_m=TAU * 0.3e6, gamma_m=TAU * 0.5, kappa=TAU * 3e6,
                  kerr=TAU * 0.16e6, g0=TAU * 1.7e3, n_th=2778.0)


def bifurcation(s: System):
    """(Delta_bi, n_in_bi) = (-sqrt(3) kappa/2, kappa^2 / (3 sqrt(3) K_eff))."""
    s3 = math.sqrt(3.0)
    return -s3 * s.kappa / 2.0, s.kappa ** 2 / (3.0 * s3 * s.k_eff)


def equal_drive(s: System, cap: float = CAP) -> float:
    """The capped drive of the nonlinear system, shared by both modes."""
    return cap * bifurcation(s)[1]


def backaction_floor(omega_frac: float) -> float:
    """(sqrt(kappa^2/omega_m^2 + 4) - 2) / 4 at omega_m = omega_frac kappa."""
    return (math.sqrt(1.0 / omega_frac ** 2 + 4.0) - 2.0) / 4.0


def matched_squeeze(omega_m: float, kappa: float, delta_eff: float, xi: float):
    """Gain-matched squeezing at effective detuning delta_eff: (wp, r) with
    wp^2 = ((Delta_eff - omega_m)^2 + kappa^2/4) / ((Delta_eff + omega_m)^2
    + kappa^2/4) and sinh^2 r = xi wp^2 / (1 - wp^2)."""
    wp2 = (((delta_eff - omega_m) ** 2 + kappa ** 2 / 4.0)
           / ((delta_eff + omega_m) ** 2 + kappa ** 2 / 4.0))
    return math.sqrt(wp2), math.asinh(math.sqrt(xi * wp2 / (1.0 - wp2)))


# ----------------------------------------------------------------------
# 50-digit point solution

def _mp(x):
    return mpmath.mpf(x)


def lower_root_mp(s: System, delta: float, n_in: float):
    """Smallest real root of the photon cubic as a 50-digit mpf.

    f(n) = n[(Delta + K n)^2 + kappa^2/4] - kappa n_in is negative for
    n <= 0.  The lower root lies below the first critical point n1 when
    f(n1) >= 0; otherwise it lies above the second one.  A bracketed
    Newton step, falling back to bisection, then converges in the bracket.
    """
    with mpmath.workdps(DIGITS + 10):
        k, d, ka, flux = _mp(s.k_eff), _mp(delta), _mp(s.kappa), _mp(n_in)
        q = ka * ka / 4
        if flux == 0:
            return mpmath.mpf(0)
        if k == 0:
            return ka * flux / (d * d + q)

        def f(n):
            shift = d + k * n
            return n * (shift * shift + q) - ka * flux

        def fp(n):
            return 3 * k * k * n * n + 4 * d * k * n + d * d + q

        lo, hi = _mp(0), 4 * flux / ka
        disc = k * k * (4 * d * d - 3 * ka * ka)
        if disc > 0:
            n1 = (-4 * d * k - mpmath.sqrt(disc)) / (6 * k * k)
            n2 = (-4 * d * k + mpmath.sqrt(disc)) / (6 * k * k)
            if n1 > 0 and f(n1) >= 0:
                hi = n1
            elif n2 > 0:
                lo = n2
        if f(hi) < 0:
            raise ArithmeticError("reference bracket does not hold the root")
        n = (lo + hi) / 2
        tol = mpmath.mpf(10) ** (-DIGITS - 2)
        for _ in range(2000):
            fn = f(n)
            if fn == 0:
                return n
            if fn < 0:
                lo = n
            else:
                hi = n
            slope = fp(n)
            step = fn / slope if slope != 0 else None
            cand = n - step if step is not None else None
            if cand is None or not (lo < cand < hi) or abs(step) > (hi - lo) / 2:
                cand = (lo + hi) / 2
            if abs(cand - n) <= tol * abs(cand) or hi - lo <= tol * abs(hi):
                return cand
            n = cand
        raise ArithmeticError("reference root did not converge")


def discriminant_mp(s: System, delta: float, n_in: float):
    """(D, scale) for the cubic a n^3 + b n^2 + c n + d: D > 0 means three
    distinct real roots, D < 0 one; scale is the sum of the term sizes."""
    with mpmath.workdps(DIGITS):
        k, dl, ka, flux = _mp(s.k_eff), _mp(delta), _mp(s.kappa), _mp(n_in)
        a, b, c, d = k * k, 2 * dl * k, dl * dl + ka * ka / 4, -ka * flux
        terms = [18 * a * b * c * d, -4 * b ** 3 * d, b * b * c * c,
                 -4 * a * c ** 3, -27 * a * a * d * d]
        return float(mpmath.fsum(terms)), float(mpmath.fsum(abs(t) for t in terms))


@dataclass(frozen=True)
class Point:
    """Reference solution at one (Delta, n_in), converted to floats."""

    n_c: float
    gamma_stokes: float
    gamma_antistokes: float
    gamma_opt: float
    damping: float      # gamma_m + Gamma_opt
    n_m: float          # rate form; nan where damping <= 0


def point(s: System, delta: float, n_in: float, xi: float = 0.0) -> Point:
    n = lower_root_mp(s, delta, n_in)
    with mpmath.workdps(DIGITS):
        ka, wm, g0 = _mp(s.kappa), _mp(s.omega_m), _mp(s.g0)
        lam = _mp(s.kerr) * n
        dt = _mp(delta) + 2 * lam

        def s_nn(w):
            num = n * ka * ((w - dt + lam) ** 2 + ka * ka / 4)
            den = (dt * dt - w * w + ka * ka / 4 - lam * lam) ** 2 + ka * ka * w * w
            return num / den

        g_s = g0 * g0 * s_nn(-wm)
        g_as = g0 * g0 * s_nn(wm)
        g_opt = g_as - g_s
        damping = _mp(s.gamma_m) + g_opt
        n_m = ((_mp(s.gamma_m) * _mp(s.n_th) + (1 - _mp(xi)) * g_s) / damping
               if damping > 0 else mpmath.nan)
        return Point(float(n), float(g_s), float(g_as), float(g_opt),
                     float(damping), float(n_m))


def occupation(s: System, delta: float, n_in: float, xi: float = 0.0) -> float:
    """Rate-form occupation at one point, +inf where the point anti-damps."""
    v = point(s, delta, n_in, xi).n_m
    return v if math.isfinite(v) else math.inf


# ----------------------------------------------------------------------
# float scans

def lower_root_array(s: System, deltas, n_in) -> np.ndarray:
    """Float lower root over broadcast arrays of detuning and drive, by the
    bracket of lower_root_mp and plain bisection."""
    d = np.asarray(deltas, dtype=float)
    flux = np.asarray(n_in, dtype=float)
    d, flux = np.broadcast_arrays(d, flux)
    k, ka = s.k_eff, s.kappa
    q = ka * ka / 4.0
    if k == 0.0:
        return ka * flux / (d * d + q)

    def f(n):
        shift = d + k * n
        return n * (shift * shift + q) - ka * flux

    lo = np.zeros_like(d)
    hi = 4.0 * flux / ka
    disc = k * k * (4.0 * d * d - 3.0 * ka * ka)
    root = np.sqrt(np.maximum(disc, 0.0))
    n1 = (-4.0 * d * k - root) / (6.0 * k * k)
    n2 = (-4.0 * d * k + root) / (6.0 * k * k)
    has = disc > 0.0
    below = has & (n1 > 0.0) & (f(np.maximum(n1, 0.0)) >= 0.0)
    hi = np.where(below, n1, hi)
    lo = np.where(has & ~below & (n2 > 0.0), n2, lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        neg = f(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def occupation_array(s: System, deltas, n_in, xi: float = 0.0) -> np.ndarray:
    """Float rate-form occupation over broadcast arrays, +inf where the
    point anti-damps."""
    d = np.asarray(deltas, dtype=float)
    n = lower_root_array(s, d, n_in)
    lam = s.kerr * n
    dt = d + 2.0 * lam
    ka, wm = s.kappa, s.omega_m

    def s_nn(w):
        num = n * ka * ((w - dt + lam) ** 2 + ka * ka / 4.0)
        return num / ((dt * dt - w * w + ka * ka / 4.0 - lam * lam) ** 2 + ka * ka * w * w)

    g_s = s.g0 ** 2 * s_nn(-wm)
    damping = s.gamma_m + s.g0 ** 2 * s_nn(wm) - g_s
    with np.errstate(all="ignore"):
        n_m = (s.gamma_m * s.n_th + (1.0 - xi) * g_s) / damping
    return np.where(damping > 0.0, n_m, np.inf)


def detuning_window(s: System):
    """The cooling search window: red side out to 2.5 kappa + 2 omega_m,
    stopping 0.005 kappa short of resonance."""
    return -(2.5 * s.kappa + 2.0 * s.omega_m), -0.005 * s.kappa


def min_occupation(s: System, n_in: float, xi: float = 0.0,
                   points: int = 20001, refine: int = 60):
    """Minimum of the rate-form occupation over the detuning window at a
    fixed drive: a dense float scan, then golden-section refinement of the
    best cell with the 50-digit point solution.  Returns (delta, n_m)."""
    lo, hi = detuning_window(s)
    grid = np.linspace(lo, hi, points)
    vals = occupation_array(s, grid, n_in, xi)
    i = int(np.argmin(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = occupation(s, c, n_in, xi), occupation(s, d, n_in, xi)
    for _ in range(refine):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = occupation(s, c, n_in, xi)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = occupation(s, d, n_in, xi)
    best = min((fc, c), (fd, d), (occupation(s, grid[i], n_in, xi), grid[i]))
    return best[1], best[0]
