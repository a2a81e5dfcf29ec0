"""The Brent root of every 1-D search against `scipy.optimize.brentq`,
which it transcribes: the same root bit for bit and the same iteration
count, on seeded synthetic brackets and on the slope callbacks of the
optimizers; a typed error at the iteration cap and on a NaN iterate."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from kerrcool import steady, sweeps
from kerrcool.errors import ConvergenceError
from kerrcool.params import TAU
from kerrcool.sweeps import AxisRange, Mode, SweepKind, SweepSpec


def _family(kind, r, k):
    """A function with a sign change at r: smooth (kinds 0-2), a step that
    leaves only bisection (3), and a triple root (4)."""
    if kind == 0:
        return lambda x: (x - r) * (1.0 + k * k * (x - r) * (x - r))
    if kind == 1:
        return lambda x: math.expm1(k * (x - r))
    if kind == 2:
        return lambda x: math.atan(k * (x - r)) - 0.25 * math.atan(k * (x - r) / 7.0)
    if kind == 3:
        return lambda x: math.copysign(1.0, x - r)
    return lambda x: (x - r) ** 3


def _synthetic_brackets(seed, count):
    """(f, a, b) with f(a), f(b) nonzero and of opposite signs: roots from
    1e-3 to 1e7 in magnitude, of either sign, brackets from 1e-8 to 1e3
    of it wide, either end first."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 7.0))
        width = abs(r) * 10.0 ** rng.uniform(-8.0, 3.0)
        a = r - width * rng.uniform(0.01, 1.0)
        b = r + width * rng.uniform(0.01, 1.0)
        f = _family(int(rng.integers(5)), r, rng.uniform(0.1, 50.0) / width)
        if rng.random() < 0.5:
            a, b = b, a
        fa, fb = f(a), f(b)
        if fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            yield f, a, b


def _tolerances(a, b):
    """Those of `_bracketed_root`, and scipy's defaults."""
    return ((1e-15 * max(abs(a), abs(b)), sweeps.ROOT_RTOL),
            (2e-12, 4.0 * np.finfo(float).eps))


def _assert_same_as_brentq(f, a, b, xtol, rtol):
    """`_brent` against brentq at the same cap: the same root and
    iteration count, or both at the cap, where `_brent` raises.  Returns
    brentq's (iterations, converged)."""
    want, info = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=sweeps.ROOT_MAXITER,
                        full_output=True, disp=False)
    if not info.converged:
        with pytest.raises(ConvergenceError, match="did not converge in"):
            sweeps._brent(f, a, b, f(a), f(b), xtol, rtol)
        return info.iterations, False
    got, iterations = sweeps._brent(f, a, b, f(a), f(b), xtol, rtol)
    assert got.hex() == float(want).hex(), (a, b, got, want)
    assert iterations == info.iterations, (a, b)
    return iterations, True


class TestSyntheticBrackets:
    def test_root_and_iterations_equal_brentq(self):
        runs = [_assert_same_as_brentq(f, a, b, xtol, rtol)
                for f, a, b in _synthetic_brackets(seed=14, count=1500)
                for xtol, rtol in _tolerances(a, b)]
        converged = [n for n, ok in runs if ok]
        # from a few iterations to dozens of bisections; the flat triple
        # roots exhaust the cap of 100 in both
        assert min(converged) <= 5 and max(converged) >= 40
        assert 100 < len(runs) - len(converged) < len(runs) // 2

    def test_cap_raises(self, monkeypatch):
        cases = 0
        for f, a, b in _synthetic_brackets(seed=15, count=200):
            xtol, rtol = _tolerances(a, b)[0]
            needed, converged = _assert_same_as_brentq(f, a, b, xtol, rtol)
            if not converged or needed < 3:
                continue
            cases += 1
            monkeypatch.setattr(sweeps, "ROOT_MAXITER", needed - 1)
            assert _assert_same_as_brentq(f, a, b, xtol, rtol) == (needed - 1, False)
            monkeypatch.setattr(sweeps, "ROOT_MAXITER", needed)
            assert _assert_same_as_brentq(f, a, b, xtol, rtol) == (needed, True)
            monkeypatch.undo()
        assert cases > 100

    def test_nan_iterate_raises_typed(self):
        # finite at the ends, NaN inside: scipy raises a bare ValueError
        def f(x):
            return x - 0.3 if x in (0.0, 1.0) else math.nan

        with pytest.raises(ValueError):
            brentq(f, 0.0, 1.0)
        with pytest.raises(ConvergenceError, match="the function is nan at"):
            sweeps._bracketed_root(f, 0.0, 1.0, f(0.0), f(1.0))


# ----------------------------------------------------------------------
# the slope callbacks of the searches

def _recorded_brackets(monkeypatch, run):
    """Every (f, a, b) that `run` hands `_bracketed_root` with a sign
    change, the nested ones of a boundary's probes too."""
    calls = []
    real = sweeps._bracketed_root

    def spy(f, a, b, fa, fb):
        calls.append((f, a, b, fa, fb))
        return real(f, a, b, fa, fb)

    monkeypatch.setattr(sweeps, "_bracketed_root", spy)
    run()
    monkeypatch.undo()
    return [(f, a, b) for f, a, b, fa, fb in calls
            if fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0)]


def _searches(p):
    n_in = steady.critical_power(p)
    yield lambda: sweeps.optimal_detuning(p, n_in)
    yield lambda: sweeps.optimal_detuning(p, 0.3 * n_in, xi=0.9)
    yield lambda: sweeps.optimal_detuning(p.without_kerr(), n_in)
    yield lambda: sweeps.max_damping_point(p, n_in)
    yield lambda: sweeps.optimize_operating_point(p)


@pytest.mark.parametrize("omega_frac,g0_hz", [(0.1, 1.7e3), (0.05, 15e3), (0.3, 35e3)])
def test_slope_roots_equal_brentq(defaults, omega_frac, g0_hz, monkeypatch):
    p = sweeps.sideband_variant(defaults.replace(g0=TAU * g0_hz), omega_frac)
    brackets = []
    for run in _searches(p):
        brackets += _recorded_brackets(monkeypatch, run)
    assert len(brackets) >= 5
    for f, a, b in brackets:
        _assert_same_as_brentq(f, a, b, 1e-15 * max(abs(a), abs(b)), sweeps.ROOT_RTOL)


def test_boundary_roots_equal_brentq(defaults, monkeypatch):
    brackets = _recorded_brackets(monkeypatch, lambda: sweeps.ground_state_onset_omega(
        defaults, TAU * 10e3, Mode.NONLINEAR, bracket=(0.05, 0.5)))
    # the boundary root itself and the detuning roots of its probes
    assert sum((a, b) == (0.05, 0.5) for _, a, b in brackets) == 1
    assert len(brackets) > 5
    for f, a, b in brackets:
        _assert_same_as_brentq(f, a, b, 1e-15 * max(abs(a), abs(b)), sweeps.ROOT_RTOL)


def test_nan_slope_is_a_row_error(defaults, monkeypatch):
    # a slope finite on the grid but NaN at every Brent iterate: each row
    # records a ConvergenceError and the sweep goes on
    real = sweeps._grid_slope_min

    def nan_inside(vals, grid, value, slope):
        on_grid = set(np.asarray(grid).tolist())
        return real(vals, grid, value, lambda x: slope(x) if x in on_grid else math.nan)

    monkeypatch.setattr(sweeps, "_grid_slope_min", nan_inside)
    spec = SweepSpec(SweepKind.SIDEBAND_SWEEP, {"omega_frac": AxisRange(0.1, 0.3, 3)})
    rows = sweeps.run_sweep(spec, defaults)
    assert len(rows) == 3
    assert all(row["error"].startswith("Brent root in [") and "is nan at" in row["error"]
               for row in rows)
