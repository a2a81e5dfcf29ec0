"""The Brent root of every 1-D search against `scipy.optimize.brentq`,
which it transcribes: the same root bit for bit and the same iteration
count, on seeded synthetic brackets and on the slope callbacks of the
optimizers; a typed error at the iteration cap and on a NaN iterate; and
the lock-step form, many brackets per call, against `_brent` lane by lane."""
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
# the lock-step form, many brackets per call

def _lanes(cases):
    """f(x, active) of `_brent_lanes` over the scalar functions of `cases`,
    each asked at its own float."""
    def f(x, active):
        assert x.shape == (len(cases),) and active.shape == x.shape
        return np.array([case[0](v) for case, v in zip(cases, x.tolist())])
    return f


def _nan_near_root(f, a, b):
    """f, but NaN within 1e-3 of the bracket width around its root, which
    Brent reaches after a few iterates."""
    r = brentq(f, a, b, disp=False)
    width = abs(b - a)
    return lambda x: math.nan if abs(x - r) < 1e-3 * width else f(x)


def _assert_lanes_equal_brent(cases):
    """`_brent_lanes` on all of `cases` (f, a, b, xtol) in one call against
    `_brent` on each: the same root bits and iteration count, or the same
    exception type and text.  Returns the scalar outcomes."""
    xa, xb = [c[1] for c in cases], [c[2] for c in cases]
    fa, fb = [c[0](c[1]) for c in cases], [c[0](c[2]) for c in cases]
    root, count, errors = sweeps._brent_lanes(
        _lanes(cases), xa, xb, fa, fb, [c[3] for c in cases], sweeps.ROOT_RTOL)
    outcomes = []
    for k, (f, a, b, xtol) in enumerate(cases):
        try:
            want = sweeps._brent(f, a, b, fa[k], fb[k], xtol, sweeps.ROOT_RTOL)
        except ConvergenceError as exc:
            assert type(errors[k]) is ConvergenceError and str(errors[k]) == str(exc), k
            assert math.isnan(root[k])
            outcomes.append(str(exc))
            continue
        assert errors[k] is None, (k, errors[k])
        assert (float(root[k]).hex(), int(count[k])) == (want[0].hex(), want[1]), k
        outcomes.append(want[1])
    return outcomes


class TestLockStep:
    @staticmethod
    def _cases(seed, count):
        return [(f, a, b, xtol) for f, a, b in _synthetic_brackets(seed, count)
                for xtol, _ in _tolerances(a, b)]

    def test_roots_iterations_and_cap_equal_brent(self):
        outcomes = _assert_lanes_equal_brent(self._cases(seed=16, count=600))
        converged = [n for n in outcomes if isinstance(n, int)]
        capped = [e for e in outcomes if isinstance(e, str)]
        assert min(converged) <= 5 and max(converged) >= 40
        assert len(capped) > 50 and all("did not converge in 100" in e for e in capped)

    def test_nan_lanes_leave_their_neighbours(self):
        cases = self._cases(seed=17, count=200)
        # every third lane turns NaN near its root, at some iterate
        cases = [(_nan_near_root(f, a, b), a, b, xtol) if k % 3 == 0 else (f, a, b, xtol)
                 for k, (f, a, b, xtol) in enumerate(cases)]
        outcomes = _assert_lanes_equal_brent(cases)
        nan = [e for e in outcomes if isinstance(e, str) and "the function is nan at" in e]
        assert len(nan) > len(cases) // 6
        assert sum(isinstance(n, int) for n in outcomes) > len(cases) // 3

    def test_nan_at_first_iterate(self):
        def f(x):
            return x - 0.3 if x in (0.0, 1.0) else math.nan

        _assert_lanes_equal_brent([(f, 0.0, 1.0, 1e-15), (lambda x: x - 0.3, 0.0, 1.0, 1e-15)])

    def test_lowered_cap(self, monkeypatch):
        monkeypatch.setattr(sweeps, "ROOT_MAXITER", 6)
        outcomes = _assert_lanes_equal_brent(self._cases(seed=18, count=200))
        assert any(isinstance(n, int) for n in outcomes)
        assert any(isinstance(e, str) and "did not converge in 6 iterations" in e
                   for e in outcomes)


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

    def nan_inside(vals, grid, lane):
        on_grid = set(np.asarray(grid).tolist())
        return real(vals, grid, lambda x: lane(x) if x in on_grid else (lane(x)[0], math.nan))

    monkeypatch.setattr(sweeps, "_grid_slope_min", nan_inside)
    spec = SweepSpec(SweepKind.SIDEBAND_SWEEP, {"omega_frac": AxisRange(0.1, 0.3, 3)})
    rows = sweeps.run_sweep(spec, defaults)
    assert len(rows) == 3
    assert all(row["error"].startswith("Brent root in [") and "is nan at" in row["error"]
               for row in rows)
