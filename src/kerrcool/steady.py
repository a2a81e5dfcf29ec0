"""Classical mean-field solution of the driven Kerr cavity.

The intracavity photon number obeys the cubic

    n_c [ (Delta + K_eff n_c)^2 + (kappa/2)^2 ] = kappa n_in,

where K_eff adds the static optomechanical back-shift (the "mechanical
Kerr") to the intrinsic Kerr constant.  Roots are computed in real
arithmetic from the depressed cubic and polished with Newton steps in
extended precision: the interesting drives sit a fraction 1e-7 below the
bifurcation, where the cubic is nearly degenerate and naive root finding
loses digits.

`_resolvent` gives the resolvent pair (L0, L1) and the discriminant
D = L0^3 + L1^2, on floats and arrays alike.  With n = (t - 2 Delta) /
(3 K_eff) the cubic reads t^3 + 3 L0 t + 2 L1 = 0, so the sign of D names
the real roots: where D > 0 the one real root is Cardano's
t = L0/sigma - sigma, sigma = cbrt(L1 + sign(L1) sqrt(D)), which does not
cancel; where D <= 0 the three roots are Viete's
t_k = 2 r cos((phi + 2 pi k)/3), r = sqrt(-L0), phi = acos(-L1/r^3),
ascending for k = 1, 2, 0; r = 0 is the triple root t = 0.  Every root
path and `cubic_discriminant_rel` build on `_resolvent`:

* The ranking grid (`_lower_closed_form`): Cardano everywhere, and Viete's
  k = 1 only where D <= 0, unpolished.  It serves grids that only pick a
  bracket or a cell for the optimizers; none of its roots is reported.
* The reported grid (`lower_branch_array`): the ranking grid plus the
  vector `_newton_polish`; it serves the columns of detuning profiles.
  Its core `_polished_lower` also takes K_eff and the drive as arrays:
  the lock-step lanes of a map's searches, one system per element, each
  the twin of the scalar path on its own floats.
* The scalar path (`_real_roots`, `_polish_root`, `lower_root`,
  `photon_branches`) serves point solves and every number an optimizer
  reports, in plain float arithmetic with an `np.longdouble` polish, at
  about a tenth of the cost of a one-element array.  Its cube root,
  arccos and cosine are numpy's, as on the grids: `math.cbrt` rounds some
  cube roots differently in the last bit.

The two polished paths gave bit-identical lower roots on 100,800 seeded
random and near-cusp points; tests/test_scalar_root.py pins their
agreement bit for bit, and the unpolished roots against a 50-digit
reference.  Every `SteadyState` is built by `state_for_root`.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPolicyError, ConfigError, InvariantError, LinearCavityError
from .params import (TAU, BranchPolicy, CRITICAL_POWER_FRACTION, OperatingPoint,
                     SystemParams)

#: Target relative residual of every returned root in the cubic.
ROOT_RESIDUAL_TOL = 1e-10

#: Guarded full Newton steps of the root polish, vector and scalar alike;
#: a step that would raise |f| is not taken.
POLISH_STEPS = 3


class Branch(enum.Enum):
    MONOSTABLE = "monostable"
    BISTABLE_LOWER = "bistable_lower"
    BISTABLE_MIDDLE = "bistable_middle"
    BISTABLE_UPPER = "bistable_upper"


@dataclass(frozen=True)
class SteadyState:
    """Classical operating point plus the linearized-fluctuation parameters
    derived from it (all rates angular)."""

    n_c: float           # mean intracavity photon number
    phi_c: float         # phase of the coherent amplitude (rad)
    k_eff: float         # effective Kerr constant (intrinsic + mechanical)
    delta_tilde: float   # shifted detuning Delta + 2|Lambda|
    lambda_abs: float    # parametric (single-mode squeezing) strength K n_c
    g_abs: float         # photon-enhanced coupling g0 sqrt(n_c)
    q_static: float      # static mechanical displacement <q>
    branch: Branch
    detuning: float      # bare detuning the point was solved at
    n_in: float          # input photon flux the point was solved at

    @property
    def delta_eff(self) -> float:
        """Effective cooling detuning |Lambda| - Delta~ = -Delta - |Lambda|."""
        return self.lambda_abs - self.delta_tilde


@dataclass(frozen=True)
class BifurcationData:
    """Universal bifurcation locus of the driven Kerr cavity."""

    delta_bi: float   # rad/s, always negative
    n_bi: float       # photon number at the cusp
    n_in_bi: float    # critical input flux (photons/s)


def effective_kerr(p: SystemParams) -> float:
    """Intrinsic Kerr plus the optomechanically induced (mechanical) Kerr."""
    return p.kerr + mechanical_kerr(p)


def mechanical_kerr(p: SystemParams) -> float:
    """The g0-induced part of the effective Kerr constant,
    2 g0^2 omega_m / (omega_m^2 + gamma_m^2/4), formed directly: the
    difference K_eff - K cancels where it is far below K."""
    return 2.0 * p.g0 ** 2 * p.omega_m / (p.omega_m ** 2 + p.gamma_m ** 2 / 4.0)


def cubic_coeffs(k_eff: float, delta: float, kappa: float, n_in: float):
    """Coefficients (a, b, c, d) of a n^3 + b n^2 + c n + d = 0."""
    return (
        k_eff * k_eff,
        2.0 * delta * k_eff,
        delta * delta + kappa * kappa / 4.0,
        -kappa * n_in,
    )


def cubic_residual(k_eff: float, delta: float, kappa: float, n_in: float, n):
    """Residual of the photon cubic normalized by kappa*n_in."""
    n = np.asarray(n, dtype=float)
    lhs = n * ((delta + k_eff * n) ** 2 + kappa * kappa / 4.0)
    return (lhs - kappa * n_in) / (kappa * n_in)


def _resolvent(k_eff, delta, kappa, n_in):
    """Resolvent pair (L0, L1) of the photon cubic and its discriminant
    D = L0^3 + L1^2, on floats or arrays: L0 = 3 kappa^2/4 - Delta^2 and
    L1 = -(9 kappa^2/4 + Delta^2) Delta - 27 kappa K_eff n_in / 2."""
    l0 = 0.75 * kappa * kappa - delta * delta
    l1 = -(2.25 * kappa * kappa + delta * delta) * delta - 13.5 * kappa * k_eff * n_in
    return l0, l1, l0 * (l0 * l0) + l1 * l1


def _newton_polish(k_eff, delta, kappa, n_in, roots):
    """Guarded Newton steps on the photon cubic in extended precision.

    Each step is one full Newton step, kept only where it does not raise
    |f|; elsewhere the point stays where it is.  At a (near-)multiple root
    the raw Newton step is noise over noise and must not move the root.
    The start is a closed-form root, so no line search is needed.  The
    residual and the shift Delta + K n of each accepted point are carried
    into the next step instead of being evaluated again.
    """
    ld = np.longdouble
    n = roots.astype(ld)
    d, ka, K, flux = ld(delta), ld(kappa), ld(k_eff), ld(n_in)
    quarter = ka * ka / ld(4.0)
    drive = ka * flux
    two = ld(2.0)
    shift = d + K * n
    f = n * (shift * shift + quarter) - drive
    for _ in range(POLISH_STEPS):
        fp = shift * shift + quarter + two * n * K * shift
        candidate = n - np.divide(f, fp, out=np.zeros_like(f), where=fp != 0.0)
        c_shift = d + K * candidate
        f_new = candidate * (c_shift * c_shift + quarter) - drive
        better = np.abs(f_new) <= np.abs(f)
        n, f, shift = (np.where(better, new, old)
                       for new, old in ((candidate, n), (f_new, f), (c_shift, shift)))
    return np.asarray(n, dtype=float)


def _real_roots(k_eff: float, delta: float, kappa: float, n_in: float):
    """The real roots of the photon cubic at one detuning, ascending and
    unpolished: one where D > 0, three where D <= 0.  Plain float
    arithmetic, except numpy's cube root, arccos and cosine, so the first
    root is the one `_lower_closed_form` takes, bit for bit."""
    l0, l1, disc = _resolvent(k_eff, delta, kappa, n_in)
    inv3k = 1.0 / (3.0 * k_eff)
    if disc > 0.0:
        sigma = float(np.cbrt(l1 + math.copysign(math.sqrt(disc), l1)))
        return (inv3k * (l0 / sigma - sigma - 2.0 * delta),)
    r = math.sqrt(-l0)
    if r == 0.0:
        # triple root at the cusp
        return (inv3k * (-2.0 * delta),) * 3
    phi = float(np.arccos(min(max(-l1 / (r * r * r), -1.0), 1.0)))
    return tuple(inv3k * (2.0 * r * float(np.cos((phi + TAU * k) / 3.0)) - 2.0 * delta)
                 for k in (1, 2, 0))


def _polish_root(k_eff: float, delta: float, kappa: float, n_in: float,
                 root: float) -> float:
    """`_newton_polish` for one root, on `np.longdouble` scalars.

    Elementwise the same arithmetic as the vector polish.  A rejected step,
    or a vanishing f', would repeat in every later step, so the loop stops
    there.  So does a step that leaves n where it is: f and the shift are
    then bit-identical, and every later step would repeat it.  Most roots
    stop moving after one or two of the `POLISH_STEPS`.
    """
    ld = np.longdouble
    n = ld(root)
    d, ka, K, flux = ld(delta), ld(kappa), ld(k_eff), ld(n_in)
    quarter = ka * ka / ld(4.0)
    drive = ka * flux
    two = ld(2.0)
    shift = d + K * n
    f = n * (shift * shift + quarter) - drive
    for _ in range(POLISH_STEPS):
        fp = shift * shift + quarter + two * n * K * shift
        if fp == 0.0:
            break
        candidate = n - f / fp
        if candidate == n:
            break
        c_shift = d + K * candidate
        f_new = candidate * (c_shift * c_shift + quarter) - drive
        if not abs(f_new) <= abs(f):
            break
        n, f, shift = candidate, f_new, c_shift
    return float(n)


def branch_slope(k_eff: float, delta: float, kappa: float, n):
    """d(kappa n_in)/d n_c along the cubic, on floats or arrays; negative
    slope marks the classically unstable middle branch.  Equals
    (Delta + 3 K n)(Delta + K n) + kappa^2/4."""
    return (delta + 3.0 * k_eff * n) * (delta + k_eff * n) + kappa * kappa / 4.0


def _is_stable(k_eff: float, delta, kappa: float, n):
    """Classical stability label of root n, on floats or arrays.  Marginal
    (bifurcation) roots count as stable: the slope vanishes exactly there
    and rounding must not flip the label."""
    scale = (abs(delta) + 3.0 * k_eff * n) * (abs(delta) + k_eff * n) + kappa * kappa / 4.0
    return branch_slope(k_eff, delta, kappa, n) > -1e-9 * scale


def root_slopes(p: SystemParams, delta, n_c):
    """(dn_c/dDelta, dn_c/dn_in) along a root n_c of the photon cubic, on
    floats or arrays, by implicit differentiation:
    -2 n_c (Delta + K_eff n_c) / f' and kappa / f', f' = `branch_slope`."""
    return _root_slopes(effective_kerr(p), p.kappa, delta, n_c)


def _root_slopes(k_eff, kappa, delta, n_c):
    """`root_slopes` given K_eff and kappa, which may be arrays of lanes."""
    fp = branch_slope(k_eff, delta, kappa, n_c)
    return -2.0 * n_c * (delta + k_eff * n_c) / fp, kappa / fp


def checked_drive(p: SystemParams, delta: float, n_in: float) -> float:
    """n_in, or a ConfigError naming it where it is negative, not finite,
    or overflows the photon cubic's resolvent at `delta` (at delta = 0,
    above about 9.9e152 / (kappa K_eff) photons/s), or where the square of
    4 n_in / kappa, the most photons any detuning and Kerr constant reach,
    overflows: the bound that holds a cavity with K_eff = 0, which has no
    cubic, to finite spectra."""
    OperatingPoint(delta, n_in)
    if not math.isfinite(_resolvent(effective_kerr(p), delta, p.kappa, n_in)[2]):
        raise ConfigError(f"n_in must keep the photon cubic finite: {n_in!r} photons/s "
                          f"overflows its resolvent at detuning {delta!r} rad/s")
    n_max = 4.0 * n_in / p.kappa
    if not math.isfinite(n_max * n_max):
        raise ConfigError(f"n_in must keep the photon number finite: {n_in!r} photons/s "
                          f"overflows the square of 4 n_in / kappa")
    return n_in


def photon_branches(p: SystemParams, delta: float, n_in: float):
    """All real non-negative photon-number roots at (delta, n_in), sorted
    ascending, each tagged with its classical stability."""
    checked_drive(p, delta, n_in)
    if n_in == 0.0:
        return [(0.0, True)]
    k_eff = effective_kerr(p)
    if k_eff == 0.0:
        return [(p.kappa * n_in / (delta * delta + p.kappa * p.kappa / 4.0), True)]

    delta, n_in = float(delta), float(n_in)
    real = sorted(r for r in (_polish_root(k_eff, delta, p.kappa, n_in, x)
                              for x in _real_roots(k_eff, delta, p.kappa, n_in))
                  if r > -1e-12)
    # collapse numerically duplicated roots (exact degeneracy)
    merged = []
    for r in real:
        if merged and abs(r - merged[-1]) <= 1e-9 * max(1.0, abs(r)):
            continue
        merged.append(max(r, 0.0))
    out = [(r, bool(_is_stable(k_eff, delta, p.kappa, r))) for r in merged]
    if len(out) == 3 and out[1][1]:
        raise InvariantError(
            f"middle root of a triple is stable at detuning={delta!r}, n_in={n_in!r}")
    return out


def _lower_closed_form(p: SystemParams, deltas, n_in):
    """Smallest non-negative real root for every detuning in `deltas`,
    before the polish: the root that ranks a search grid.  Cardano's root
    everywhere, replaced by Viete's k = 1 where D <= 0.  `n_in` may be an
    array that broadcasts against `deltas` (fluxes[:, None] gives one row
    per flux); each element rounds as in a call at its own scalar drive."""
    deltas = np.asarray(deltas, dtype=float)
    if np.ndim(n_in) == 0 and n_in == 0.0:
        return np.zeros_like(deltas)
    k_eff = effective_kerr(p)
    if k_eff == 0.0:
        return p.kappa * n_in / (deltas * deltas + p.kappa * p.kappa / 4.0)
    return _closed_form(k_eff, deltas, p.kappa, n_in)


def _closed_form(k_eff, deltas, kappa, n_in):
    """`_lower_closed_form` of a cubic with K_eff > 0 and a positive drive;
    K_eff and n_in may be arrays that broadcast against `deltas`."""
    l0, l1, disc = _resolvent(k_eff, deltas, kappa, n_in)
    # where D <= 0 Cardano's root is NaN or wrong; Viete's replaces it
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = np.cbrt(l1 + np.copysign(np.sqrt(disc), l1))
        t = np.asarray(l0 / sigma - sigma)
        three = disc <= 0.0
        if np.any(three):
            r = np.sqrt(-np.broadcast_to(l0, three.shape)[three])
            phi = np.arccos(np.clip(-l1[three] / (r * r * r), -1.0, 1.0))
            # r = 0 is the triple root t = 0
            t[three] = np.where(r == 0.0, 0.0, 2.0 * r * np.cos((phi + TAU) / 3.0))
    return np.maximum((1.0 / (3.0 * k_eff)) * (t - 2.0 * deltas), 0.0)


def lower_branch_array(p: SystemParams, deltas, n_in: float):
    """Smallest non-negative real root for every detuning in `deltas`: the
    closed form, polished.  Vectorized fast path used by sweeps; agrees
    with photon_branches."""
    k_eff = effective_kerr(p)
    if n_in == 0.0 or k_eff == 0.0:
        return _lower_closed_form(p, deltas, n_in)
    return _polished_lower(k_eff, np.asarray(deltas, dtype=float), p.kappa, n_in)


def _polished_lower(k_eff, deltas, kappa, n_in):
    """`lower_branch_array` of a cubic with K_eff > 0 and a positive drive;
    K_eff and n_in may be arrays of lanes, each the twin of `_lower_root`
    at its own floats."""
    lower = _newton_polish(k_eff, deltas, kappa, n_in, _closed_form(k_eff, deltas, kappa, n_in))
    return np.maximum(lower, 0.0)


def single_stable_root(p: SystemParams, deltas, n_in: float, n_c):
    """Mask of the detunings where `photon_branches` returns [(n_c, True)],
    n_c being the `lower_branch_array` root: the cubic has one real root
    (D > 0) and its label is stable.  The drive must be valid and the
    detunings finite."""
    deltas = np.asarray(deltas, dtype=float)
    k_eff = effective_kerr(p)
    if n_in == 0.0 or k_eff == 0.0:
        return np.ones(deltas.shape, dtype=bool)
    disc = _resolvent(k_eff, deltas, p.kappa, n_in)[2]
    return (disc > 0.0) & _is_stable(k_eff, deltas, p.kappa, n_c)


def lower_root(p: SystemParams, delta: float, n_in: float) -> float:
    """Smallest non-negative real root at one detuning: `lower_branch_array`
    for a single point, step for step, without the array overhead."""
    return _lower_root(effective_kerr(p), p.kappa, delta, n_in)


def _lower_root(k_eff: float, kappa: float, delta: float, n_in: float) -> float:
    """`lower_root` given K_eff and kappa."""
    if n_in == 0.0:
        return 0.0
    delta, n_in = float(delta), float(n_in)
    if k_eff == 0.0:
        return kappa * n_in / (delta * delta + kappa * kappa / 4.0)
    lower = max(_real_roots(k_eff, delta, kappa, n_in)[0], 0.0)
    return max(_polish_root(k_eff, delta, kappa, n_in, lower), 0.0)


def bifurcation(p: SystemParams) -> BifurcationData:
    """Universal bifurcation point: Delta_bi = -sqrt(3) kappa / 2,
    n_bi = kappa / (sqrt(3) K_eff), n_in_bi = kappa^2 / (3 sqrt(3) K_eff)."""
    k_eff = effective_kerr(p)
    if k_eff == 0.0:
        raise LinearCavityError("a strictly linear cavity (K_eff = 0) has no bifurcation")
    s3 = math.sqrt(3.0)
    return BifurcationData(
        delta_bi=-s3 * p.kappa / 2.0,
        n_bi=p.kappa / (s3 * k_eff),
        n_in_bi=p.kappa ** 2 / (3.0 * s3 * k_eff),
    )


def critical_power(p: SystemParams, fraction: float = CRITICAL_POWER_FRACTION) -> float:
    """Input flux a fixed fraction below the bifurcation drive."""
    return fraction * bifurcation(p).n_in_bi


def _coherent_phase(p: SystemParams, k_eff: float, delta: float, n_c: float) -> float:
    """Phase of alpha from the steady-state equation with a real positive
    drive amplitude: alpha = sqrt(kappa) a_in / (i(Delta + K_eff n_c) - kappa/2)."""
    if n_c == 0.0:
        return 0.0
    denom = complex(-p.kappa / 2.0, delta + k_eff * n_c)
    return cmath.phase(1.0 / denom) % (2.0 * math.pi)


def solve_steady(p: SystemParams, op: OperatingPoint) -> SteadyState:
    """Solve the classical steady state and package the linearization inputs.

    Branch selection follows op.branch_policy; the parametric strength uses
    the intrinsic Kerr only (|Lambda| = K n_c) while the cubic itself runs
    on the full effective Kerr.
    """
    roots = photon_branches(p, op.detuning, op.n_in)
    stable = [(r, s) for r, s in roots if s]
    if not stable:
        raise InvariantError(
            f"photon cubic produced no stable root at detuning={op.detuning!r}, "
            f"n_in={op.n_in!r}")

    if len(roots) == 3:
        if op.branch_policy is BranchPolicy.REQUIRE_MONOSTABLE:
            raise BranchPolicyError(
                f"three coexisting roots at detuning={op.detuning!r}, n_in={op.n_in!r}"
            )
        if op.branch_policy is BranchPolicy.UPPER_BRANCH:
            n_c = stable[-1][0]
            branch = Branch.BISTABLE_UPPER
        else:
            n_c = stable[0][0]
            branch = Branch.BISTABLE_LOWER
    else:
        n_c = stable[-1][0] if op.branch_policy is BranchPolicy.UPPER_BRANCH else stable[0][0]
        branch = Branch.MONOSTABLE

    return state_for_root(p, op.detuning, op.n_in, n_c, branch)


def steady_at(p: SystemParams, delta: float, n_in: float,
              policy: BranchPolicy = BranchPolicy.LOWER_BRANCH) -> SteadyState:
    """Shorthand for solve_steady at explicit (delta, n_in)."""
    return solve_steady(p, OperatingPoint(detuning=delta, n_in=n_in, branch_policy=policy))


def state_for_root(p: SystemParams, delta: float, n_in: float, n_c: float,
                   branch: Branch = Branch.BISTABLE_MIDDLE) -> SteadyState:
    """SteadyState built on an explicitly chosen photon-number root, e.g.
    the classically unstable middle branch; `solve_steady` builds its
    states here too."""
    k_eff = effective_kerr(p)
    lam = p.kerr * n_c
    return SteadyState(
        n_c=n_c,
        phi_c=_coherent_phase(p, k_eff, delta, n_c),
        k_eff=k_eff,
        delta_tilde=delta + 2.0 * lam,
        lambda_abs=lam,
        g_abs=p.g0 * math.sqrt(n_c),
        q_static=-math.sqrt(2.0) * p.g0 * p.omega_m * n_c / (p.omega_m ** 2 + p.gamma_m ** 2 / 4.0),
        branch=branch,
        detuning=delta,
        n_in=n_in,
    )


def cubic_discriminant_rel(p: SystemParams, delta: float, n_in: float) -> float:
    """Resolvent discriminant L0^3 + L1^2 of the photon cubic, normalized
    by its no-cancellation scale; vanishes at the bifurcation cusp and is
    negative exactly where three real roots coexist."""
    k_eff = effective_kerr(p)
    num = _resolvent(k_eff, delta, p.kappa, n_in)[2]
    scale = ((0.75 * p.kappa ** 2 + delta * delta) ** 3
             + ((2.25 * p.kappa ** 2 + delta * delta) * abs(delta)
                + 13.5 * p.kappa * k_eff * n_in) ** 2)
    return num / scale
