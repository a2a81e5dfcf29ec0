"""Classical mean-field solution of the driven Kerr cavity.

The intracavity photon number obeys the cubic

    n_c [ (Delta + K_eff n_c)^2 + (kappa/2)^2 ] = kappa n_in,

where K_eff adds the static optomechanical back-shift (the "mechanical
Kerr") to the intrinsic Kerr constant.  Roots are computed from the
explicit closed forms of the depressed cubic in complex arithmetic and
polished with Newton steps in extended precision: the interesting drives
sit a fraction 1e-7 below the bifurcation, where the cubic is nearly
degenerate and naive root finding loses digits.

The cubic's resolvent pair (L0, L1) lives in `_resolvent`, on floats and
arrays alike; every root path and `cubic_discriminant_rel` build on it.
Three paths share the root recipe:

* The ranking grid (`_lower_closed_form`): the vector closed form and its
  dust filter, unpolished.  It serves grids that only pick a bracket or a
  cell for the optimizers, and the sign-change scan of
  `cavity.exceptional_points`; none of its roots is reported.  Off the cusp it
  is within about 1e-13 relative of the polished root.
* The reported grid (`lower_branch_array`): the ranking grid plus the
  vector `_newton_polish`; it serves the columns of detuning profiles.
* The scalar path (`_cubic_roots`, `_polish_root`, `lower_root`,
  `photon_branches`) serves point solves and every number an optimizer
  reports, in plain float/complex arithmetic with an `np.longdouble`
  polish, at about a tenth of the cost of a one-element array.

The two polished paths gave bit-identical lower roots on 16,800 seeded
random and near-cusp points; tests/test_scalar_root.py pins their
agreement at 1e-12 relative.  Every `SteadyState` is built by
`state_for_root`.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPolicyError, InvariantError, LinearCavityError
from .params import (BranchPolicy, CRITICAL_POWER_FRACTION, OperatingPoint,
                     SystemParams)

#: Imaginary dust tolerance for accepting a closed-form root as real.
REAL_ROOT_IMAG_TOL = 1e-9

#: Target relative residual of every returned root in the cubic.
ROOT_RESIDUAL_TOL = 1e-10

#: Backtracking Newton steps of the root polish, and step halvings per step;
#: the vector and the scalar polish both use them.
POLISH_STEPS = 3
POLISH_HALVINGS = 8


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
    """Intrinsic Kerr plus the optomechanically induced (mechanical) Kerr:
    K + 2 g0^2 omega_m / (omega_m^2 + gamma_m^2/4)."""
    return p.kerr + 2.0 * p.g0 ** 2 * p.omega_m / (p.omega_m ** 2 + p.gamma_m ** 2 / 4.0)


def mechanical_kerr(p: SystemParams) -> float:
    """The g0-induced part of the effective Kerr constant."""
    return effective_kerr(p) - p.kerr


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


#: Primitive sixth roots of unity of the closed-form root formulas.
_W_PLUS = cmath.exp(1j * math.pi / 3.0)
_W_MINUS = cmath.exp(-1j * math.pi / 3.0)


def _resolvent(k_eff, delta, kappa, n_in):
    """Resolvent pair (L0, L1) of the photon cubic, on floats or arrays:
    L0 = 3 kappa^2/4 - Delta^2 and L1 = -(9 kappa^2/4 + Delta^2) Delta
    - 27 kappa K_eff n_in / 2."""
    l0 = 0.75 * kappa * kappa - delta * delta
    l1 = -(2.25 * kappa * kappa + delta * delta) * delta - 13.5 * kappa * k_eff * n_in
    return l0, l1


def _closed_form_roots(k_eff, delta, kappa, n_in):
    """The three complex roots of the photon cubic, vectorized over delta.

    Uses the explicit resolvent: Sigma = cbrt(sqrt(L0^3 + L1^2) + L1).
    """
    delta = np.asarray(delta, dtype=float)
    l0, l1 = _resolvent(k_eff, delta, kappa, n_in)
    s = np.sqrt(l0.astype(complex) ** 3 + np.asarray(l1, dtype=complex) ** 2)
    arg = s + l1
    # near-cancellation: the opposite square-root branch is equally valid
    alt = l1 - s
    swap = np.abs(arg) < 1e-3 * np.abs(alt)
    arg = np.where(swap, alt, arg)
    tiny = np.abs(arg) == 0.0
    sigma = np.where(tiny, 1.0, arg) ** (1.0 / 3.0)

    inv3k = 1.0 / (3.0 * k_eff)
    ratio = l0 / sigma
    r1 = inv3k * (-2.0 * delta - sigma + ratio)
    r2 = inv3k * (-2.0 * delta + _W_MINUS * sigma - _W_PLUS * ratio)
    r3 = inv3k * (-2.0 * delta + _W_PLUS * sigma - _W_MINUS * ratio)
    if np.any(tiny):
        # triple root at the cusp
        triple = -2.0 * delta * inv3k + 0j
        r1 = np.where(tiny, triple, r1)
        r2 = np.where(tiny, triple, r2)
        r3 = np.where(tiny, triple, r3)
    return np.stack([r1, r2, r3])


def _newton_polish(k_eff, delta, kappa, n_in, roots):
    """Backtracking Newton steps on the photon cubic in extended precision.

    A step is only kept while it reduces |f|; at a (near-)multiple root the
    raw Newton step is noise over noise and must not move the root.  The
    residual of the last accepted candidate is carried into the next step
    instead of being evaluated again.
    """
    ld = np.longdouble
    n = roots.astype(ld)
    d, ka, K, flux = ld(delta), ld(kappa), ld(k_eff), ld(n_in)
    quarter = ka * ka / ld(4.0)

    def f_of(x):
        shift = d + K * x
        return x * (shift * shift + quarter) - ka * flux

    f = f_of(n)
    for _ in range(POLISH_STEPS):
        shift = d + K * n
        fp = shift * shift + quarter + ld(2.0) * n * K * shift
        step = np.where(fp != 0.0, f / np.where(fp != 0.0, fp, ld(1.0)), ld(0.0))
        for _ in range(POLISH_HALVINGS):
            f_new = f_of(n - step)
            better = np.abs(f_new) <= np.abs(f)
            if np.all(better):
                break
            step = np.where(better, step, step * ld(0.5))
        else:
            # the last halving has not been evaluated yet
            f_new = f_of(n - step)
            better = np.abs(f_new) <= np.abs(f)
        n = np.where(better, n - step, n)
        f = np.where(better, f_new, f)
    return np.asarray(n, dtype=float)


def _cubic_roots(k_eff: float, delta: float, kappa: float, n_in: float):
    """The three complex roots of the photon cubic at one detuning: the
    scalar twin of `_closed_form_roots`, step for step."""
    l0, l1 = _resolvent(k_eff, delta, kappa, n_in)
    disc = l0 * (l0 * l0) + l1 * l1
    s = cmath.sqrt(disc)
    arg = s + l1
    # near-cancellation: the opposite square-root branch is equally valid
    alt = l1 - s
    if abs(arg) < 1e-3 * abs(alt):
        arg = alt
    inv3k = 1.0 / (3.0 * k_eff)
    if abs(arg) == 0.0:
        # triple root at the cusp
        triple = complex(-2.0 * delta * inv3k, 0.0)
        return triple, triple, triple
    # numpy's complex power, the one the vector path uses; Python's own
    # power rounds some cube roots differently in the last bits
    sigma = complex(np.complex128(arg) ** (1.0 / 3.0))
    ratio = l0 / sigma
    return (inv3k * (-2.0 * delta - sigma + ratio),
            inv3k * (-2.0 * delta + _W_MINUS * sigma - _W_PLUS * ratio),
            inv3k * (-2.0 * delta + _W_PLUS * sigma - _W_MINUS * ratio))


def _polish_root(k_eff: float, delta: float, kappa: float, n_in: float,
                 root: float) -> float:
    """`_newton_polish` for one root, on `np.longdouble` scalars.

    Elementwise the same arithmetic as the vector polish.  A rejected step,
    or a vanishing f', would repeat in every later iteration, so the loop
    stops there.
    """
    ld = np.longdouble
    n = ld(root)
    d, ka, K, flux = ld(delta), ld(kappa), ld(k_eff), ld(n_in)
    quarter = ka * ka / ld(4.0)
    drive = ka * flux
    half, two = ld(0.5), ld(2.0)
    shift = d + K * n
    f = n * (shift * shift + quarter) - drive
    for _ in range(POLISH_STEPS):
        fp = shift * shift + quarter + two * n * K * shift
        if fp == 0.0:
            break
        step = f / fp
        # the vector loop's halvings plus its evaluation of the last one
        for _ in range(POLISH_HALVINGS + 1):
            candidate = n - step
            c_shift = d + K * candidate
            f_new = candidate * (c_shift * c_shift + quarter) - drive
            if abs(f_new) <= abs(f):
                break
            step = step * half
        else:
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


def _dust_real(roots):
    """Mask of the closed-form roots that the dust filter accepts as real."""
    return np.abs(roots.imag) <= REAL_ROOT_IMAG_TOL * np.maximum(1.0, np.abs(roots))


def root_slopes(p: SystemParams, delta, n_c):
    """(dn_c/dDelta, dn_c/dn_in) along a root n_c of the photon cubic, on
    floats or arrays, by implicit differentiation:
    -2 n_c (Delta + K_eff n_c) / f' and kappa / f', f' = `branch_slope`."""
    k_eff = effective_kerr(p)
    fp = branch_slope(k_eff, delta, p.kappa, n_c)
    return -2.0 * n_c * (delta + k_eff * n_c) / fp, p.kappa / fp


def photon_branches(p: SystemParams, delta: float, n_in: float):
    """All real non-negative photon-number roots at (delta, n_in), sorted
    ascending, each tagged with its classical stability."""
    OperatingPoint(delta, n_in)   # ConfigError for a negative or non-finite drive
    if n_in == 0.0:
        return [(0.0, True)]
    k_eff = effective_kerr(p)
    if k_eff == 0.0:
        return [(p.kappa * n_in / (delta * delta + p.kappa * p.kappa / 4.0), True)]

    delta, n_in = float(delta), float(n_in)
    roots = _cubic_roots(k_eff, delta, p.kappa, n_in)
    real = [r.real for r in roots if abs(r.imag) <= REAL_ROOT_IMAG_TOL * max(1.0, abs(r))]
    if not real:
        # dust filter rejected everything; a real cubic always has one
        real = [min(roots, key=lambda r: abs(r.imag)).real]
    real = sorted(r for r in (_polish_root(k_eff, delta, p.kappa, n_in, x) for x in real)
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


def _lower_closed_form(p: SystemParams, deltas, n_in: float):
    """Smallest non-negative real closed-form root for every detuning in
    `deltas`, before the polish: the root that ranks a search grid."""
    deltas = np.asarray(deltas, dtype=float)
    if n_in == 0.0:
        return np.zeros_like(deltas)
    k_eff = effective_kerr(p)
    if k_eff == 0.0:
        return p.kappa * n_in / (deltas * deltas + p.kappa * p.kappa / 4.0)
    roots = _closed_form_roots(k_eff, deltas, p.kappa, n_in)
    real = np.where(_dust_real(roots), roots.real, np.inf)
    real = np.where(real < -1e-12, np.inf, real)
    lower = np.min(real, axis=0)
    # dust filter can reject everything at a degenerate point; fall back to
    # the root with the least imaginary part (the cubic always has one real)
    missed = ~np.isfinite(lower)
    if np.any(missed):
        least = np.take_along_axis(
            roots, np.argmin(np.abs(roots.imag), axis=0)[None, ...], axis=0
        )[0]
        lower = np.where(missed, least.real, lower)
    return np.maximum(lower, 0.0)


def lower_branch_array(p: SystemParams, deltas, n_in: float):
    """Smallest non-negative real root for every detuning in `deltas`: the
    closed form, polished.  Vectorized fast path used by sweeps; agrees
    with photon_branches."""
    lower = _lower_closed_form(p, deltas, n_in)
    k_eff = effective_kerr(p)
    if n_in == 0.0 or k_eff == 0.0:
        return lower
    lower = _newton_polish(k_eff, np.asarray(deltas, dtype=float), p.kappa, n_in, lower)
    return np.maximum(lower, 0.0)


def single_stable_root(p: SystemParams, deltas, n_in: float, n_c):
    """Mask of the detunings where `photon_branches` returns [(n_c, True)],
    n_c being the `lower_branch_array` root: one closed-form root passes
    the dust filter and its label is stable.  The drive must be valid and
    the detunings finite."""
    deltas = np.asarray(deltas, dtype=float)
    k_eff = effective_kerr(p)
    if n_in == 0.0 or k_eff == 0.0:
        return np.ones(deltas.shape, dtype=bool)
    roots = _closed_form_roots(k_eff, deltas, p.kappa, n_in)
    single = np.count_nonzero(_dust_real(roots), axis=0) == 1
    return single & _is_stable(k_eff, deltas, p.kappa, n_c)


def lower_root(p: SystemParams, delta: float, n_in: float) -> float:
    """Smallest non-negative real root at one detuning: `lower_branch_array`
    for a single point, step for step, without the array overhead."""
    if n_in == 0.0:
        return 0.0
    k_eff = effective_kerr(p)
    delta, n_in = float(delta), float(n_in)
    if k_eff == 0.0:
        return p.kappa * n_in / (delta * delta + p.kappa * p.kappa / 4.0)
    roots = _cubic_roots(k_eff, delta, p.kappa, n_in)
    lower = math.inf
    for r in roots:
        # max(nan, 1.0) is nan, which fails the filter as it does in numpy
        if abs(r.imag) <= REAL_ROOT_IMAG_TOL * max(abs(r), 1.0) and -1e-12 <= r.real < lower:
            lower = r.real
    if lower == math.inf:
        # dust filter rejected everything; fall back to the least imaginary part
        lower = min(roots, key=lambda r: abs(r.imag)).real
    return max(_polish_root(k_eff, delta, p.kappa, n_in, max(lower, 0.0)), 0.0)


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
    l0, l1 = _resolvent(k_eff, delta, p.kappa, n_in)
    num = l0 ** 3 + l1 ** 2
    scale = ((0.75 * p.kappa ** 2 + delta * delta) ** 3
             + ((2.25 * p.kappa ** 2 + delta * delta) * abs(delta)
                + 13.5 * p.kappa * k_eff * n_in) ** 2)
    return num / scale
