"""Parameter sweeps, constrained optimizers, and figure-style datasets.

Conventions shared by the sweep kinds:

* The drive never exceeds a fixed fraction (default 0.9999999) of the
  bifurcation flux of the nonlinear system, keeping every operating point
  monostable.
* Linear-comparison curves switch the intrinsic Kerr off but keep the
  mechanical Kerr in the classical cubic; equal-drive comparisons
  (sideband sweeps, ground-state maps) drive the linear cavity at the
  nonlinear system's critical power, while power-optimizing comparisons
  cap the linear drive at its own mechanical-Kerr bifurcation.
* Sweeps that vary the mechanical frequency hold the bath temperature
  fixed at the value implied by the base parameters and recompute the
  thermal occupation per point through the Bose-Einstein law.

Each of these choices is made in one place.  `_equal_drive_target` gives
the system and drive of every equal-drive comparison (sideband rows, map
cells, boundary probes, the detuning-profile sweep).  A ground-state map
cell and a probe of its one-phonon boundary set up their system in one
function, `_map_cell`.  Each map cell ranks its own detuning grid; then the
detuning searches of all the sweep's cells run as lock-step lanes of
Brent's method (`_search_cells`), one array evaluation per iterate, bit
for bit as `optimal_detuning` on each cell.  The boundaries follow, column
by column, on the scalar path (`_map_occupation`): a Brent root started in
the pair of cells that brackets the crossing, so no cell is evaluated
twice.  Each sweep kind is one entry
of `_KINDS`: the axes, purity and mode it reads, which `SweepSpec` checks,
and its rows.  The reproduce targets fig2, fig3 and fig5 are one
`detuning_profile` dataset.
"""
from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import cavity, cooling, squeezing, steady
from .errors import ConfigError, ConvergenceError, KerrcoolError
from .params import (TAU, OperatingPoint, SystemParams, bath_temperature,
                     bose_occupation, CRITICAL_POWER_FRACTION)

#: Default resolutions: dense enough to bracket the near-critical spike in
#: the occupation landscape (width ~1e-3 kappa at the standard drive).
PROFILE_POINTS = 4001
OUTER_AXIS_POINTS = 41
POWER_GRID_POINTS = 64
MAP_POINTS = 120


class SweepKind(enum.Enum):
    DETUNING_PROFILE = "detuning_profile"
    COUPLING_SWEEP = "coupling_sweep"
    SIDEBAND_SWEEP = "sideband_sweep"
    SIDEBAND_SWEEP_SQUEEZED = "sideband_sweep_squeezed"
    OPTIMAL_POWER_CURVE = "optimal_power_curve"
    GROUND_STATE_MAP = "ground_state_map"


class Mode(enum.Enum):
    NONLINEAR = "nonlinear"
    LINEAR_COMPARISON = "linear_comparison"


@dataclass(frozen=True)
class AxisRange:
    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"axis count must be >= 2, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("axis range must be finite")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis scale must be linear or log, got {self.scale!r}")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            if self.start <= 0 or self.stop <= 0:
                raise ConfigError("log axis requires positive bounds")
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    kind: SweepKind
    ranges: dict = field(default_factory=dict)   # axis name -> AxisRange
    mode: Mode | None = None   # nonlinear, for a kind that reads a mode
    cap_fraction: float = CRITICAL_POWER_FRACTION
    squeeze_xi: float | None = None

    def __post_init__(self):
        """ConfigError unless the spec gives exactly the axes its kind
        reads, and an xi or a mode only to a kind that reads one (`_KINDS`)."""
        if not 0.0 < self.cap_fraction <= 1.0:
            raise ConfigError(f"cap_fraction must be in (0, 1], got {self.cap_fraction}")
        if self.squeeze_xi is not None and not 0.0 <= self.squeeze_xi <= 1.0:
            raise ConfigError(f"xi must be in [0, 1], got {self.squeeze_xi}")
        axes, takes_xi, takes_mode, _ = _KINDS[self.kind]
        for name, value, reads in (("xi", self.squeeze_xi, takes_xi),
                                   ("mode", self.mode and self.mode.value, takes_mode)):
            if value is not None and not reads:
                raise ConfigError(f"sweep kind {self.kind.value} takes no {name}, "
                                  f"got {name} = {value}")
        if self.mode is None and takes_mode:
            object.__setattr__(self, "mode", Mode.NONLINEAR)
        unread = [name for name in self.ranges if name not in axes]
        if unread:
            raise ConfigError(f"sweep kind {self.kind.value} takes no axis "
                              f"{', '.join(map(repr, unread))}; its axes: {', '.join(axes)}")
        for name in axes:
            if name not in self.ranges:
                raise ConfigError(f"sweep kind {self.kind.value} needs axis {name!r}")


# ----------------------------------------------------------------------
# 1-D searches: a bracket from a coarse grid or from end values, then
# Brent's method on a root of an exact derivative

def _rates_and_slopes(p: SystemParams, delta: float, n_in: float, along_flux: bool):
    """(Gamma_S, Gamma_opt) on the lower branch and their derivatives along
    the detuning, or along the input flux."""
    delta = float(delta)
    k_eff, sq = steady.effective_kerr(p), cavity._squares(p)
    n_c = steady._lower_root(k_eff, p.kappa, delta, n_in)
    dn_ddelta, dn_dflux = steady._root_slopes(k_eff, p.kappa, delta, n_c)
    step = (0.0, dn_dflux) if along_flux else (1.0, dn_ddelta)
    return cavity._rates(p, sq, delta, n_c), cavity._rate_slopes(p, sq, delta, n_c, *step)


def _occupation_lane(p: SystemParams, delta: float, n_in: float, xi: float = 0.0,
                     along_flux: bool = False):
    """`cooling.rate_occupation` at one point on the lower branch, on
    floats, and its slope dn_m/dDelta (or dn_m/dn_in): (n_m, dn_m).  n_m
    is +inf where infeasible; the slope is nan where gamma_m + Gamma_opt <= 0."""
    (g_s, g_opt), (dg_s, dg_opt) = _rates_and_slopes(p, delta, n_in, along_flux)
    n_m = cooling.rate_occupation(p, g_s, g_opt, xi)[0]
    denom = p.gamma_m + g_opt
    return n_m, (((1.0 - xi) * dg_s - n_m * dg_opt) / denom if denom > 0.0 else math.nan)


def _lane_columns(systems: list, n_in: list) -> SimpleNamespace:
    """The systems and drives of many lanes as one column per field, each
    element the scalar lane's own float: K_eff and the squares of
    `cavity._squares` are formed per system, not on the columns."""
    cols = {name: np.array([getattr(s, name) for s in systems])
            for name in ("kerr", "omega_m", "kappa", "g0", "gamma_m", "n_th")}
    cols["k_eff"] = np.array([steady.effective_kerr(s) for s in systems])
    cols["sq"] = np.array([cavity._squares(s) for s in systems]).T
    return SimpleNamespace(n_in=np.array(n_in, dtype=float), **cols)


def _take(cols: SimpleNamespace, lanes) -> SimpleNamespace:
    """The columns of the given lanes only."""
    return SimpleNamespace(**{name: v[..., lanes] for name, v in vars(cols).items()})


def _occupation_lanes(cols: SimpleNamespace, delta, xi: float):
    """`_occupation_lane` along the detuning on arrays: lane k is the system
    and drive of column k at delta[..., k], bit for bit as on its floats
    where K_eff > 0 and n_in > 0.  Returns (n_m, slope, odd): odd marks a
    lane whose root or branch slope is not finite, where the scalar lane
    may raise instead, and which the scalar path must take."""
    with np.errstate(all="ignore"):
        n_c = steady._polished_lower(cols.k_eff, delta, cols.kappa, cols.n_in)
        dn_ddelta, dn_dflux = steady._root_slopes(cols.k_eff, cols.kappa, delta, n_c)
        g_s, g_opt = cavity._rates(cols, cols.sq, delta, n_c)
        dg_s, dg_opt = cavity._rate_slopes(cols, cols.sq, delta, n_c, 1.0, dn_ddelta)
        n_m = cooling.rate_occupation(cols, g_s, g_opt, xi)[0]
        denom = cols.gamma_m + g_opt
        slope = np.where(denom > 0.0, ((1.0 - xi) * dg_s - n_m * dg_opt) / denom, np.nan)
    return n_m, slope, ~(np.isfinite(n_c) & np.isfinite(dn_dflux))


#: Relative tolerance of every bracketed root: 4 eps, the least that the
#: reference `brentq` accepts; `_brent` transcribes its C code.  A Python
#: float, so that iterates, roots and error texts stay plain floats.
ROOT_RTOL = 4.0 * float(np.finfo(float).eps)
#: Iteration cap of every bracketed root (`brentq`'s default maxiter).
ROOT_MAXITER = 100


def _brent(f, xa: float, xb: float, fa: float, fb: float, xtol: float, rtol: float):
    """Root of f in [xa, xb] by Brent's method (Algorithms for Minimization
    without Derivatives, 1973), transcribed from the `brentq.c` that
    tests/test_brent.py checks against: the same xblk/spre/scur bookkeeping,
    the tolerance delta = (xtol + rtol |x|)/2 and the cap of `ROOT_MAXITER`
    iterations, so the iterates and the root are the same.  fa = f(xa) and
    fb = f(xb) are nonzero and of opposite signs.  Returns (root,
    iterations); a NaN function value or the cap raises ConvergenceError."""
    xpre, xcur, fpre, fcur = float(xa), float(xb), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, ROOT_MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ConvergenceError(
                f"Brent root in [{xa!r}, {xb!r}]: the function is nan at {xcur!r}")
    raise ConvergenceError(
        f"Brent root in [{xa!r}, {xb!r}] did not converge in {ROOT_MAXITER} iterations")


def _brent_lanes(f, xa, xb, fa, fb, xtol, rtol: float):
    """`_brent` on arrays of brackets in lock-step: every lane runs the
    scalar arithmetic on its own floats.  A lane that has finished leaves
    the `active` mask with its result, and its later arithmetic is
    discarded.  f(x, active) gives the function at x for every lane; a
    lane that is no longer active is asked at its xa.  Returns (root,
    iterations, errors): errors[k] is None, or the exception that `_brent`
    raises on lane k, where its root is nan: a ConvergenceError at a nan
    value or at the cap, or the ZeroDivisionError of an extrapolation
    through a zero divisor."""
    xa, xb, xtol = (np.array(v, dtype=float) for v in (xa, xb, xtol))
    xpre, xcur = xa, xb
    fpre, fcur = (np.array(v, dtype=float) for v in (fa, fb))
    xblk = fblk = spre = scur = np.zeros_like(xa)
    root, count = np.full_like(xa, np.nan), np.zeros(xa.shape, dtype=int)
    errors = [None] * len(xa)
    active = np.ones(xa.shape, dtype=bool)

    def stop(lanes, error):
        for k in np.flatnonzero(lanes):
            errors[k] = error(k)
        active[lanes] = False

    with np.errstate(all="ignore"):
        for iterations in range(1, ROOT_MAXITER + 1):
            new = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
            xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
            spre = np.where(new, xcur - xpre, spre)
            scur = np.where(new, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + rtol * np.abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            done = active & ((fcur == 0.0) | (np.abs(sbis) < delta))
            root[done], count[done] = xcur[done], iterations
            active &= ~done
            if not active.any():
                break
            tried = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            interpolate = xpre == xblk
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolated = dblk * dpre * (fblk - fpre)
            stry = np.where(interpolate, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / extrapolated)
            # the scalar form divides by zero here and raises
            stop(active & tried & ~interpolate & ((xpre == xcur) | (xblk == xcur)
                                                 | (extrapolated == 0.0)),
                 lambda k: ZeroDivisionError("float division by zero"))
            good = tried & (2.0 * np.abs(stry)
                            < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta))
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0.0, delta, -delta))
            fcur = np.asarray(f(np.where(active, xcur, xa), active), dtype=float)
            stop(active & np.isnan(fcur), lambda k: ConvergenceError(
                f"Brent root in [{float(xa[k])!r}, {float(xb[k])!r}]: "
                f"the function is nan at {float(xcur[k])!r}"))
        stop(active, lambda k: ConvergenceError(
            f"Brent root in [{float(xa[k])!r}, {float(xb[k])!r}] did not converge "
            f"in {ROOT_MAXITER} iterations"))
    return root, count, errors


def _bracketed_root(f, a: float, b: float, fa: float, fb: float):
    """Root of f in [a, b] by Brent's method, in `_brent`'s transcription
    of the reference `brentq`, given fa = f(a) and fb = f(b), which are not
    evaluated again; None unless fa and fb differ in sign."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):   # same sign, or nan
        return None
    return _brent(f, a, b, fa, fb, 1e-15 * max(abs(a), abs(b)), ROOT_RTOL)[0]


def _ranked_bracket(vals: np.ndarray, grid: np.ndarray):
    """(g[i-1], g[i], g[i+1]) around the least sample vals[i], clipped to the
    grid, as floats; None where no sample is finite."""
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        return None
    return float(grid[max(0, i - 1)]), float(grid[i]), float(grid[min(len(grid) - 1, i + 1)])


def _grid_slope_min(vals: np.ndarray, grid: np.ndarray, lane):
    """Minimum of a function sampled as `vals` on `grid`; `lane(x)` gives
    its exact (value, slope) at x.  The samples only rank: the least one
    picks the bracket [g[i-1], g[i+1]], and the root of the slope in it
    refines the point.  Without a sign change (an edge minimum), or if the
    value at the grid point is lower than at the root, the grid point
    stands, with that exact value, not its sample.  Brent returns an end
    or an iterate, so the value at the root is one already computed.
    Returns (x, value)."""
    ranked = _ranked_bracket(vals, grid)
    if ranked is None:
        return math.nan, math.inf
    a, g, b = ranked
    seen = {}

    def slope(x):
        seen[x] = lane(x)
        return seen[x][1]

    x = _bracketed_root(slope, a, b, slope(a), slope(b))
    fx = math.inf if x is None else seen[x][0]
    at_grid = (seen[g] if g in seen else lane(g))[0]
    if x is None or at_grid < fx:
        return g, float(at_grid)
    return x, float(fx)


def detuning_window(p: SystemParams) -> tuple:
    """Detuning search window for cooling optima: generous on the red side,
    stopping just short of resonance."""
    lo = -(2.5 * p.kappa + 2.0 * p.omega_m)
    return lo, -0.005 * p.kappa


def optimal_detuning(p: SystemParams, n_in: float, xi: float = 0.0,
                     window: tuple | None = None,
                     grid_points: int = PROFILE_POINTS):
    """Detuning minimizing the (possibly squeezed) rate-form occupation at
    fixed drive.  The grid, on the unpolished closed-form root, only picks
    the bracket; Brent's method finds the root of dn_m/dDelta in it.  Every
    returned number comes from the scalar path, the occupation at a kept
    grid point (an edge minimum) too.  Returns (delta, occupation)."""
    return _grid_slope_min(*_ranking(p, n_in, xi, window, grid_points),
                           lambda d: _occupation_lane(p, d, n_in, xi))


def _ranking(p: SystemParams, n_in: float, xi: float, window, grid_points: int):
    """(samples, grid): the rate-form occupation on the unpolished
    closed-form root over `grid_points` detunings of the window, the
    ranking of `optimal_detuning`."""
    lo, hi = window or detuning_window(p)
    grid = np.linspace(lo, hi, grid_points)
    rates = cavity.rates(p, grid, steady._lower_closed_form(p, grid, n_in))
    return cooling.rate_occupation(p, *rates, xi)[0], grid


def max_damping_point(p: SystemParams, n_in: float):
    """Detuning maximizing the effective cooperativity C_eff =
    Gamma_opt / gamma_m at fixed drive, at a root of dC_eff/dDelta; the
    grid ranks as in `optimal_detuning`.  Returns (delta, C_eff)."""
    grid = np.linspace(*detuning_window(p), PROFILE_POINTS)
    g_opt = cavity.rates(p, grid, steady._lower_closed_form(p, grid, n_in))[1]

    def neg_c(x):
        """-C_eff at detuning x, and its slope along the detuning."""
        (_, g), (_, dg) = _rates_and_slopes(p, x, n_in, along_flux=False)
        return -g / p.gamma_m, -dg / p.gamma_m

    d, negc = _grid_slope_min(-g_opt / p.gamma_m, grid, neg_c)
    return d, -negc


def _coarse_envelope(p: SystemParams, coarse: np.ndarray, fluxes: np.ndarray,
                     xi: float) -> np.ndarray:
    """The least n_m on the unpolished `coarse` detuning grid at each flux,
    ranked a block of fluxes at a time: one block holds at most
    `PROFILE_POINTS` points, as one ranking grid does, so that peak memory
    stays that of a single grid.  Every element rounds as at its own flux."""
    step = max(1, PROFILE_POINTS // len(coarse))
    blocks = [fluxes[i:i + step, None] for i in range(0, len(fluxes), step)]
    return np.concatenate([
        np.min(cooling.rate_occupation(
            p, *cavity.rates(p, coarse, steady._lower_closed_form(p, coarse, b)), xi)[0], axis=1)
        for b in blocks])


def optimize_operating_point(p: SystemParams,
                             power_cap: float = CRITICAL_POWER_FRACTION,
                             xi: float = 0.0,
                             n_in_bi: float | None = None):
    """Minimize the rate-form occupation over (detuning, input flux).

    The detuning search one level up: `_grid_slope_min` on the envelope
    F(n_in) = min over Delta of n_m (`optimal_detuning`), sampled on a
    64-point log grid over n_in in [1e-3, cap] * n_in_bi.  A coarse
    envelope, the least n_m on a `PROFILE_POINTS // 8`-point unpolished
    detuning grid (`_coarse_envelope`, 8 fluxes a block), picks the flux
    cell; F itself is evaluated only in that cell and its neighbours.  By
    the envelope theorem F' is dn_m/dn_in at the optimal detuning.  At the
    cap F' < 0 leaves no sign change, so the cap stands (a KKT point); an
    interior optimum is a root of F'.  Returns (delta, n_in,
    CoolingReport), the report under the matched squeezing of purity xi
    that was minimized (`cooling.occupation(ss, p, xi)`).
    """
    if not 0.0 < power_cap <= 1.0:
        raise ConfigError(f"power_cap must be in (0, 1], got {power_cap}")
    if n_in_bi is None:
        n_in_bi = steady.bifurcation(p).n_in_bi
    optima = {}   # flux -> (delta, n_m), the exact envelope and Brent's

    def envelope(flux):
        if flux not in optima:
            optima[flux] = optimal_detuning(p, flux, xi)
        return optima[flux]

    fluxes = np.geomspace(1e-3, power_cap, POWER_GRID_POINTS) * n_in_bi
    coarse = np.linspace(*detuning_window(p), PROFILE_POINTS // 8)
    cell = int(np.argmin(_coarse_envelope(p, coarse, fluxes, xi)))
    vals = np.full(len(fluxes), np.inf)
    for j in range(max(0, cell - 1), min(len(fluxes), cell + 2)):
        vals[j] = envelope(float(fluxes[j]))[1]
    n_in, _ = _grid_slope_min(vals, fluxes, lambda f: (
        envelope(f)[1], _occupation_lane(p, envelope(f)[0], f, xi, along_flux=True)[1]))
    delta = envelope(n_in)[0]
    return delta, n_in, cooling.occupation(steady.steady_at(p, delta, n_in), p, xi)


# ----------------------------------------------------------------------
# sweep-parameter plumbing

def sideband_variant(p: SystemParams, omega_frac: float) -> SystemParams:
    """Parameters with omega_m = omega_frac * kappa and the bath occupation
    recomputed at the fixed base temperature."""
    omega_m = omega_frac * p.kappa
    temp = bath_temperature(p.omega_m, p.n_th)
    return p.replace(omega_m=omega_m, n_th=bose_occupation(omega_m, temp))


def equal_drive(p: SystemParams, cap_fraction: float) -> float:
    """The shared drive of equal-power comparisons: cap_fraction times the
    bifurcation flux of the full nonlinear system."""
    return steady.critical_power(p, cap_fraction)


def _equal_drive_target(p: SystemParams, mode: Mode, cap_fraction: float):
    """(system, drive) of an equal-drive comparison: `equal_drive` of p, on
    p or, in linear-comparison mode, on p without the intrinsic Kerr."""
    n_in = equal_drive(p, cap_fraction)
    return (p.without_kerr() if mode is Mode.LINEAR_COMPARISON else p), n_in


#: Ranking grid of a ground-state map cell and of a boundary probe.
MAP_GRID_POINTS = PROFILE_POINTS // 2


def _map_cell(p: SystemParams, omega_frac: float, mode: Mode, cap_fraction: float):
    """(system, drive) of one ground-state map cell: the sideband variant at
    omega_frac, at equal drive."""
    return _equal_drive_target(sideband_variant(p, omega_frac), mode, cap_fraction)


def _map_occupation(p: SystemParams, omega_frac: float, mode: Mode,
                    cap_fraction: float, xi: float) -> float:
    """Least occupation of one ground-state map cell over a
    `MAP_GRID_POINTS` detuning grid, on the scalar path.  The one-phonon
    boundary is a root of this minus one."""
    return optimal_detuning(*_map_cell(p, omega_frac, mode, cap_fraction), xi,
                            grid_points=MAP_GRID_POINTS)[1]


# ----------------------------------------------------------------------
# sweep kinds

@contextlib.contextmanager
def _recorded(row: dict):
    """Record a failure inside the block in row["error"]: a KerrcoolError
    by its message, any other exception, a defect rather than a guard, as
    `internal: <Type>: <message>`.  One bad row never aborts a sweep."""
    try:
        yield
    except Exception as exc:
        row["error"] = _error_text(exc)


def _error_text(exc: Exception) -> str:
    """A row's error text: a KerrcoolError by its message, any other
    exception as `internal: <Type>: <message>`."""
    if isinstance(exc, KerrcoolError):
        return str(exc)
    return f"internal: {type(exc).__name__}: {exc}"


def _profile_row(p: SystemParams, p_lin: SystemParams, d: float, n_in: float,
                 skew, g1_lin, linear_reference: bool) -> dict:
    """One `detuning_profile` row from the scalar point solves, with every
    guard and error text in place; `skew`, the `cavity.SkewnessWorkspace`
    of p, is None without skewness."""
    row = {"detuning_rad_s": float(d), "error": ""}
    with _recorded(row):
        roots = steady.photon_branches(p, d, n_in)
        row["n_roots"] = len(roots)
        row["n_c_lower"] = roots[0][0]
        row["n_c_upper"] = roots[-1][0]
        ss = steady.steady_at(p, d, n_in)
        poles = cavity.cavity_poles(ss, p)
        row["pole_re_rad_s"] = abs(poles.poles[0].real)
        row["pole_im_plus_rad_s"] = poles.poles[0].imag
        row["pole_im_minus_rad_s"] = poles.poles[1].imag
        row["pole_region"] = poles.region.value
        rates = cavity.scattering_rates(ss, p)
        row["gamma_stokes_rad_s"] = rates.gamma_stokes
        row["gamma_antistokes_rad_s"] = rates.gamma_antistokes
        row["c_eff"] = rates.c_eff
        try:
            rep = cooling.occupation(ss, p)
            row["n_m"] = rep.n_rate
            row["backaction_share"] = rep.backaction_share
        except KerrcoolError as exc:
            row["n_m"] = math.nan
            row["error"] = str(exc)
        if skew is not None:
            g1 = skew.skewness(ss)
            row["skewness"] = g1
            row["skewness_effective"] = g1 - g1_lin
        if linear_reference:
            ss_lin = steady.steady_at(p_lin, d, n_in)
            row["n_c_linear"] = ss_lin.n_c
            row["c_eff_linear"] = cavity.scattering_rates(ss_lin, p_lin).c_eff
            try:
                row["n_m_linear"] = cooling.occupation(ss_lin, p_lin).n_rate
            except KerrcoolError:
                row["n_m_linear"] = math.nan
    return row


def _profile_columns(p: SystemParams, deltas: np.ndarray, n_in: float) -> dict:
    """The array columns of one system in `detuning_profile`: lower root,
    rates, c_eff, n_m (NaN where anti-damped) and backaction share, plus
    `ok`, false where `_profile_row` must build the row: other than one
    stable real root, a failed anti-Stokes cross-check, or an occupation
    the rate kernel refuses."""
    n_c = steady.lower_branch_array(p, deltas, n_in)
    g_s, g_opt = cavity.rates(p, deltas, n_c)
    n_m, share = cooling.rate_occupation(p, g_s, g_opt)
    lam = p.kerr * n_c
    # the fields `photon_spectrum_values` reads, one array each
    fields = SimpleNamespace(n_c=n_c, delta_tilde=deltas + 2.0 * lam, lambda_abs=lam)
    g_as = p.g0 ** 2 * cavity.photon_spectrum_values(p.omega_m, fields, p)
    damped = p.gamma_m + g_opt > 0.0
    n_m = np.where(damped, n_m, np.nan)
    ok = (steady.single_stable_root(p, deltas, n_in, n_c)
          & cavity.rates_agree(g_s, g_opt, g_as) & ~np.isinf(n_m))
    return {"n_c": n_c, "g_s": g_s, "g_as": g_as, "g_opt": g_opt,
            "c_eff": g_opt / p.gamma_m, "n_m": n_m, "share": share,
            "damped": damped, "ok": ok}


def detuning_profile(p: SystemParams, n_in: float, deltas,
                     include_skewness: bool = True,
                     linear_reference: bool = True) -> list:
    """Per-detuning dataset: branches, poles, rates, occupation, skewness.

    Array-native: one `lower_branch_array` solve per system (the full one
    and, for the linear reference, `without_kerr`), then poles, rates and
    occupations as one array expression each.  The skewness takes one
    20,001-point spectrum per row, in one `cavity.SkewnessWorkspace` that
    every row of the call reuses.  Rows that trip a guard the arrays do
    not carry (more than one real root, a failed anti-Stokes cross-check,
    a parametric instability) are built by `_profile_row`, the scalar row
    code and the one home of those error texts; anti-damped rows take
    theirs from `cooling.check_net_damping`.
    """
    deltas = np.asarray(deltas, dtype=float)
    p_lin = p.without_kerr()
    skew = g1_lin = None
    if include_skewness:
        skew = cavity.SkewnessWorkspace(p)
        g1_lin = skew.skewness(
            steady.steady_at(p_lin, float(deltas[len(deltas) // 2]), n_in))

    def scalar_row(d):
        return _profile_row(p, p_lin, d, n_in, skew, g1_lin, linear_reference)

    try:
        OperatingPoint(0.0, n_in)
    except ConfigError:
        return [scalar_row(d) for d in deltas]
    finite = np.isfinite(deltas)
    safe = np.where(finite, deltas, 0.0)
    nl = _profile_columns(p, safe, n_in)
    ok = finite & nl["ok"]
    cols = [nl["n_c"], *cavity.pole_columns(p, safe, nl["n_c"]), nl["g_s"], nl["g_as"],
            nl["c_eff"], nl["n_m"], nl["share"], nl["g_opt"], nl["damped"]]
    if linear_reference:
        lin = _profile_columns(p_lin, safe, n_in)
        ok &= lin["ok"]
        cols += [lin["n_c"], lin["c_eff"], lin["n_m"]]
    rows = []
    for (d, good, n_c, re, im_plus, im_minus, region, g_s, g_as, c_eff, n_m, share,
         g_opt, damped, *linear) in zip(deltas, ok.tolist(), *(c.tolist() for c in cols)):
        if not good:
            rows.append(scalar_row(d))
            continue
        row = {"detuning_rad_s": float(d), "error": "", "n_roots": 1,
               "n_c_lower": n_c, "n_c_upper": n_c, "pole_re_rad_s": re,
               "pole_im_plus_rad_s": im_plus, "pole_im_minus_rad_s": im_minus,
               "pole_region": region, "gamma_stokes_rad_s": g_s,
               "gamma_antistokes_rad_s": g_as, "c_eff": c_eff, "n_m": n_m}
        if damped:
            row["backaction_share"] = share
        else:
            try:
                cooling.check_net_damping(p, g_opt)
            except KerrcoolError as exc:
                row["error"] = str(exc)
        if skew is not None:
            ss = steady.state_for_root(p, d, n_in, n_c, steady.Branch.MONOSTABLE)
            try:
                g1 = skew.skewness(ss)
            except KerrcoolError:
                rows.append(scalar_row(d))
                continue
            row["skewness"] = g1
            row["skewness_effective"] = g1 - g1_lin
        if linear_reference:
            row["n_c_linear"], row["c_eff_linear"], row["n_m_linear"] = linear
        rows.append(row)
    return rows


def _coupling_row(p: SystemParams, g0: float, cap_fraction: float) -> dict:
    """One coupling-strength point: occupation at the max-damping detuning
    of the capped drive, the full two-axis optimizer result, and the
    equal-power linear comparison."""
    row = {"g0_hz": g0 / TAU, "n_in_crit_per_s": None, "error": ""}
    with _recorded(row):
        pg = p.replace(g0=g0)
        bi = steady.bifurcation(pg)
        n_in = row["n_in_crit_per_s"] = cap_fraction * bi.n_in_bi
        d_damp, c_max = max_damping_point(pg, n_in)
        ss = steady.steady_at(pg, d_damp, n_in)
        rep = cooling.occupation(ss, pg)
        row.update({
            "delta_maxdamp_rad_s": d_damp, "c_eff_max": c_max,
            "n_m_maxdamp": rep.n_rate, "backaction_share_maxdamp": rep.backaction_share,
        })
        d_opt, n_in_opt, rep_opt = optimize_operating_point(pg, power_cap=cap_fraction)
        row.update({
            "delta_opt_rad_s": d_opt, "n_in_opt_per_s": n_in_opt,
            "n_in_opt_fraction": n_in_opt / bi.n_in_bi,
            "n_m_opt": rep_opt.n_rate,
        })
        # linear cavity at the same (optimal) drive
        pl = pg.without_kerr()
        d_lin, n_m_lin = optimal_detuning(pl, n_in_opt)
        ss_lin = steady.steady_at(pl, d_lin, n_in_opt)
        row.update({
            "n_m_linear_same_power": n_m_lin,
            "delta_linear_rad_s": d_lin,
            "c_eff_linear": cavity.scattering_rates(ss_lin, pl).c_eff,
            "n_in_bi_linear_per_s": steady.bifurcation(pl).n_in_bi,
        })
    return row


def _sideband_row(p: SystemParams, omega_frac: float, mode: Mode,
                  cap_fraction: float, xi: float) -> dict:
    # the variant's cells stay empty where it is invalid
    row = {"omega_frac": omega_frac, "omega_m_hz": None, "n_th": None, "error": ""}
    with _recorded(row):
        pv = sideband_variant(p, omega_frac)
        row.update({"omega_m_hz": pv.omega_m / TAU, "n_th": pv.n_th})
        target, n_in = _equal_drive_target(pv, mode, cap_fraction)
        delta, n_m = optimal_detuning(target, n_in, xi)
        row.update({"delta_rad_s": delta, "n_m": n_m, "n_in_per_s": n_in})
        if math.isfinite(n_m):
            ss = steady.steady_at(target, delta, n_in)
            row["delta_eff_rad_s"] = ss.delta_eff
            row["n_c"] = ss.n_c
            if xi > 0.0:
                _, wp, n_s, r, db = squeezing.squeezed_backaction(ss, target, xi)
                row.update({"wp": wp, "n_s_matched": n_s, "r": r, "squeeze_db": db})
        _, n_ba_min = cooling.min_backaction(pv)
        row["n_ba_min"] = n_ba_min
        if xi > 0.0:
            row["n_ba_min_squeezed"] = cooling.squeezed_floor(n_ba_min, xi)
    return row


def _power_row(p: SystemParams, omega_frac: float, mode: Mode,
               cap_fraction: float) -> dict:
    row = {"omega_frac": omega_frac, "n_th": None, "error": ""}
    with _recorded(row):
        pv = sideband_variant(p, omega_frac)
        row["n_th"] = pv.n_th
        bi_nl = steady.bifurcation(pv)
        if mode is Mode.LINEAR_COMPARISON:
            # power optimized below the mechanical-Kerr bifurcation
            pl = pv.without_kerr()
            bi_lin = steady.bifurcation(pl)
            delta, n_in, rep = optimize_operating_point(
                pl, power_cap=cap_fraction, n_in_bi=bi_lin.n_in_bi)
            n_m, own_bi, nl_bi = rep.n_rate, n_in / bi_lin.n_in_bi, n_in / bi_nl.n_in_bi
        else:
            n_in = cap_fraction * bi_nl.n_in_bi
            delta, n_m = optimal_detuning(pv, n_in)
            own_bi = nl_bi = cap_fraction
        row.update({"n_in_per_s": n_in, "n_in_over_own_bi": own_bi, "n_in_over_nl_bi": nl_bi,
                    "delta_rad_s": delta, "n_m": n_m})
    return row


def _set_cell(row: dict, n_m: float):
    """A map cell's result columns."""
    row["n_m"] = n_m
    row["ground_state"] = bool(n_m < 1.0)


#: Most cells in one lock-step search: its first lane evaluation, three
#: points a cell, stays within one `PROFILE_POINTS` grid, as a block of the
#: coarse flux scan does, so that peak memory stays that of a single grid.
LOCK_STEP_CELLS = PROFILE_POINTS // 3


def _search_cells(cells: list, xi: float):
    """`optimal_detuning` of many map cells in lock-step, bit for bit as one
    at a time.  Each cell is (row, system, drive, (a, g, b)), the bracket
    and grid point of its own ranking; its least occupation, or the error
    that its scalar search raises, goes into its row.  A cell that the
    lanes do not carry (K_eff = 0 or no drive, or an odd lane) runs the
    scalar path."""
    scalar, lock_step = [], []
    for cell in cells:
        _, system, n_in, _ = cell
        (lock_step if steady.effective_kerr(system) > 0.0 and n_in > 0.0 else scalar).append(cell)
    if lock_step:
        scalar += _lock_step(lock_step, xi)
    for row, system, n_in, _ in scalar:
        with _recorded(row):
            _set_cell(row, optimal_detuning(system, n_in, xi, grid_points=MAP_GRID_POINTS)[1])


def _lock_step(cells: list, xi: float) -> list:
    """The lanes of `_search_cells`.  One lane evaluation takes both ends
    and the grid point of every cell; `_brent_lanes` finds the roots of
    the slope; `_grid_slope_min`'s rule keeps the root or the grid point.
    Returns the cells with an odd lane, whose rows stay untouched."""
    rows, systems, drives, ranked = zip(*cells)
    cols = _lane_columns(systems, drives)
    a, g, b = np.array(ranked).T
    (n_a, n_b, n_g), (fa, fb, _), odd = _occupation_lanes(cols, np.array([a, b, g]), xi)
    odd = odd.any(axis=0)
    # `_bracketed_root`: an end where the slope vanishes, else Brent's
    # method where the ends differ in sign
    x = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    n_x = np.where(fa == 0.0, n_a, np.where(fb == 0.0, n_b, np.inf))
    errors = [None] * len(rows)
    lanes = np.flatnonzero(~odd & ((fa < 0.0) & (0.0 < fb) | (fb < 0.0) & (0.0 < fa)))
    if len(lanes):
        sub = _take(cols, lanes)
        seen_x, seen_n = [a[lanes], b[lanes]], [n_a[lanes], n_b[lanes]]

        def slope(d, active):
            n_m, f, bad = _occupation_lanes(sub, d, xi)
            seen_x.append(d)
            seen_n.append(n_m)
            odd[lanes[bad & active]] = True
            return np.where(bad, np.nan, f)

        ends = np.maximum(np.abs(a[lanes]), np.abs(b[lanes]))
        root, _, failed = _brent_lanes(slope, a[lanes], b[lanes], fa[lanes], fb[lanes],
                                       1e-15 * ends, ROOT_RTOL)
        # the occupation at each root, which Brent has evaluated
        at = np.argmax(np.array(seen_x) == root, axis=0)
        x[lanes], n_x[lanes] = root, np.array(seen_n)[at, np.arange(len(lanes))]
        for k, error in zip(lanes.tolist(), failed):
            errors[k] = error
    n_m = np.where(np.isnan(x) | (n_g < n_x), n_g, n_x).tolist()
    for k, row in enumerate(rows):
        if odd[k]:
            continue
        if errors[k] is not None:
            row["error"] = _error_text(errors[k])
        else:
            _set_cell(row, n_m[k])
    return [cell for cell, deferred in zip(cells, odd.tolist()) if deferred]


def _boundary_row(spec: SweepSpec, pb: SystemParams, cells: list) -> dict:
    """The one-phonon boundary of one coupling column from its map rows
    `cells`, ascending in omega_frac: their n_m - 1 are the samples of
    `_one_phonon_root`, a failed cell's nan.  A failed end fails the
    boundary with its own text, as a fresh probe there would; the high end
    counts only where the low end is above one phonon."""
    lo, hi = cells[0], cells[-1]
    row = {"kind": "boundary", "g0_hz": lo["g0_hz"],
           "g0_over_kappa": lo["g0_over_kappa"], "error": ""}
    row["error"] = lo["error"] or (hi["error"] if lo["n_m"] > 1.0 else "")
    if row["error"]:
        return row
    xi = spec.squeeze_xi or 0.0
    with _recorded(row):
        row["omega_frac"] = _one_phonon_root(
            lambda frac: _map_occupation(pb, frac, spec.mode, spec.cap_fraction, xi) - 1.0,
            [(c["omega_frac"], c.get("n_m", math.nan) - 1.0) for c in cells])
    return row


def _one_phonon_root(excess, samples: list) -> float:
    """Root of excess(omega) = n_m*(omega) - 1 from samples [(omega,
    excess)], ascending in omega, which are not evaluated again: above one
    phonon at the first, below at the last, or a KerrcoolError.  A nan
    sample (a failed cell) is left out.  Brent's method runs in the first
    pair of the others, going up in omega, where the sign goes from above
    to below."""
    (lo, above), (hi, below) = samples[0], samples[-1]
    if not (above > 0.0 > below):
        raise KerrcoolError(
            "occupation does not cross one phonon inside bracket "
            f"({float(lo)!r}, {float(hi)!r})")
    known = [s for s in samples if not math.isnan(s[1])]
    for (a, fa), (b, fb) in zip(known, known[1:]):
        if fa > 0.0 >= fb:
            return _bracketed_root(excess, float(a), float(b), fa, fb)


def ground_state_onset_omega(p: SystemParams, g0: float, mode: Mode,
                             cap_fraction: float = CRITICAL_POWER_FRACTION,
                             xi: float = 0.0,
                             bracket=(0.01, 0.8)) -> float:
    """Resolved-sideband parameter where the minimum occupation crosses one
    phonon at fixed coupling: Brent's method on n_m*(omega) - 1 over the
    whole bracket, its two ends the only samples of `_one_phonon_root`."""
    lo, hi = bracket
    pb = p.replace(g0=g0)

    def excess(frac):
        return _map_occupation(pb, frac, mode, cap_fraction, xi) - 1.0

    above = excess(lo)
    return _one_phonon_root(excess, [(lo, above), (hi, excess(hi) if above > 0.0 else math.nan)])


# ----------------------------------------------------------------------
# sweep driver

def _g0_values(spec: SweepSpec) -> list:
    return [TAU * g for g in spec.ranges["g0_hz"].grid().tolist()]


def _omega_values(spec: SweepSpec) -> list:
    return spec.ranges["omega_frac"].grid().tolist()


def _profile_rows(spec: SweepSpec, p: SystemParams) -> list:
    deltas = TAU * spec.ranges["detuning_hz"].grid()
    target, n_in = _equal_drive_target(p, spec.mode, spec.cap_fraction)
    return detuning_profile(target, n_in, deltas)


def _map_rows(spec: SweepSpec, p: SystemParams) -> list:
    """The (g0, omega_frac) cells, then per coupling the one-phonon
    boundary.  Each cell ranks its own detuning grid; then the searches of
    the sweep's cells run in lock-step (`_search_cells`), all of them at
    once up to `LOCK_STEP_CELLS` cells.  The boundaries follow, column by
    column, each from its column's cells, which it reuses as samples, with
    Brent's method in the pair that brackets the crossing."""
    o_axis = _omega_values(spec)
    ascending = sorted(range(len(o_axis)), key=o_axis.__getitem__)
    xi = spec.squeeze_xi or 0.0
    columns, cells = [], []
    for g0 in _g0_values(spec):
        try:
            pb = p.replace(g0=g0)
        except KerrcoolError:
            pb = None
        column = []
        for o in o_axis:
            row = {"kind": "map", "g0_hz": g0 / TAU, "g0_over_kappa": g0 / p.kappa,
                   "omega_frac": o, "error": ""}
            # where p refused g0 (pb None), the cell records that refusal
            with _recorded(row):
                system, n_in = _map_cell(pb or p.replace(g0=g0), o, spec.mode,
                                         spec.cap_fraction)
                ranked = _ranked_bracket(*_ranking(system, n_in, xi, None, MAP_GRID_POINTS))
                if ranked is None:
                    _set_cell(row, math.inf)
                else:
                    cells.append((row, system, n_in, ranked))
            column.append(row)
            if len(cells) == LOCK_STEP_CELLS:
                _search_cells(cells, xi)
                cells = []
        columns.append((pb, column))
    _search_cells(cells, xi)
    boundaries = [_boundary_row(spec, pb, [column[i] for i in ascending])
                  for pb, column in columns]
    return [row for _, column in columns for row in column] + boundaries


#: Each sweep kind: the axes it reads, whether it reads a purity xi and a mode
#: (a coupling sweep reports both modes), and its rows under spec s, in order.
_KINDS = {
    SweepKind.DETUNING_PROFILE: (("detuning_hz",), False, True, _profile_rows),
    SweepKind.COUPLING_SWEEP: (("g0_hz",), False, False, lambda s, p: [
        _coupling_row(p, g0, s.cap_fraction) for g0 in _g0_values(s)]),
    # one kind under two names, which spec files use both
    **dict.fromkeys((SweepKind.SIDEBAND_SWEEP, SweepKind.SIDEBAND_SWEEP_SQUEEZED),
                    (("omega_frac",), True, True, lambda s, p: [
                        _sideband_row(p, w, s.mode, s.cap_fraction, s.squeeze_xi or 0.0)
                        for w in _omega_values(s)])),
    SweepKind.OPTIMAL_POWER_CURVE: (("omega_frac",), False, True, lambda s, p: [
        _power_row(p, w, s.mode, s.cap_fraction) for w in _omega_values(s)]),
    SweepKind.GROUND_STATE_MAP: (("g0_hz", "omega_frac"), True, True, _map_rows),
}


def run_sweep(spec: SweepSpec, p: SystemParams) -> list:
    """Execute a sweep; returns rows in deterministic input order.

    Per-row failures are recorded in the row's error column and do not
    abort the sweep.
    """
    rows = _KINDS[spec.kind][-1]
    return rows(spec, p)
