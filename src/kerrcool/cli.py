"""Command-line surface: point solutions, spectra, sweeps, and the
figure/number reproduction harness.

Exit codes: 0 success (including partial sweeps with per-row errors),
1 usage, 2 configuration, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import cavity, cooling, io, oracle, squeezing, steady, sweeps
from .errors import ConfigError, KerrcoolError
from .params import (TAU, CRITICAL_POWER_FRACTION, SystemParams, default_params,
                     params_from_config)
from .sweeps import AxisRange, Mode, SweepKind, SweepSpec


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept scientific notation in negative option values (-2.598e6)
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _load_params(args) -> SystemParams:
    if args.config:
        return params_from_config(io.read_config_file(args.config))
    return default_params()


def _point(args, xi: float | None = None):
    """(system, input flux, detuning, lower-branch state) of a point
    command.  The flux is checked before any detuning search runs on it: a
    ConfigError names n_in if it is negative, not finite, or so large that
    the photon cubic or the photon number overflows (`steady.checked_drive`
    at zero detuning).  The detuning is `--detuning-hz`, or else the
    detuning of least occupation at that flux under purity xi (cool,
    squeeze, spectrum), or else, for xi None, Delta_bi (steady, poles)."""
    p = _load_params(args)
    n_in = args.n_in
    if n_in is None:
        frac = args.n_in_frac
        n_in = steady.critical_power(p, CRITICAL_POWER_FRACTION if frac is None else frac)
    n_in = steady.checked_drive(p, 0.0, n_in)
    if args.detuning_hz is not None:
        delta = TAU * args.detuning_hz
    elif xi is None:
        delta = steady.bifurcation(p).delta_bi
    else:
        delta = sweeps.optimal_detuning(p, n_in, xi=xi)[0]
    return p, n_in, delta, steady.steady_at(p, delta, n_in)


def _rows_text(rows, fmt: str) -> str:
    return io.to_json(rows) if fmt == "json" else io.rows_to_csv(rows)


# ----------------------------------------------------------------------
# subcommands: each returns its output text

def _cmd_steady(args) -> str:
    p, n_in, delta, ss = _point(args)
    bi = steady.bifurcation(p)
    return io.to_json({
        "bifurcation": {"delta_bi_rad_s": bi.delta_bi, "n_bi": bi.n_bi,
                        "n_in_bi_per_s": bi.n_in_bi},
        "detuning_rad_s": delta,
        "n_in_per_s": n_in,
        "branches": [{"n_c": r, "stable": s} for r, s in steady.photon_branches(p, delta, n_in)],
        "steady_state": {
            "n_c": ss.n_c, "phi_c_rad": ss.phi_c, "k_eff_rad_s": ss.k_eff,
            "delta_tilde_rad_s": ss.delta_tilde, "lambda_abs_rad_s": ss.lambda_abs,
            "g_abs_rad_s": ss.g_abs, "q_static": ss.q_static,
            "branch": ss.branch.value, "delta_eff_rad_s": ss.delta_eff,
        },
    })


def _spectrum_grid(p: SystemParams, args) -> np.ndarray:
    """The angular frequency grid; a span too small for `--points` to
    resolve into a strictly increasing grid is a usage error."""
    span = args.omega_span_hz if args.omega_span_hz else 10.0 * p.kappa / TAU
    grid = np.linspace(-TAU * span, TAU * span, args.points)
    if not (grid[1:] > grid[:-1]).all():
        build_parser().error(f"argument --omega-span-hz: {span!r} Hz is too small"
                             f" for a strictly increasing grid of {args.points} points")
    return grid


def _squeeze_from_args(ss, p, args) -> squeezing.SqueezeSpec:
    if args.xi is None:
        return squeezing.SqueezeSpec.vacuum()
    if args.squeeze_db is not None:
        sq = squeezing.SqueezeSpec.from_db(args.xi, args.squeeze_db)
        return sq.with_phase(squeezing.optimal_phase(ss, p))
    if args.n_s is not None:
        return squeezing.SqueezeSpec.from_n_s(args.xi, args.n_s, squeezing.optimal_phase(ss, p))
    return squeezing.matched_squeeze(ss, p, args.xi)


def _cmd_spectrum(args) -> str:
    ff = args.kind == "ff"
    p, _, _, ss = _point(args, (args.xi or 0.0) if ff else 0.0)
    grid = _spectrum_grid(p, args)
    sq = None
    if ff:
        sq = _squeeze_from_args(ss, p, args)
        values = squeezing.squeezed_force_spectrum(ss, p, sq, grid)
    elif args.kind == "nn":
        values = cavity.photon_spectrum(ss, p, grid).values
    else:
        values = cooling.mech_noise_spectrum(ss, p, grid).values
    columns = {"omega_rad_s": grid, f"s_{args.kind}": values}
    if args.oracle:
        dm = oracle.build_matrix(ss, p)
        corr = oracle.input_correlators(p, sq, ss.phi_c)
        columns["oracle"] = oracle.numeric_spectrum(dm, corr, args.kind, grid).values
    if args.format == "csv":
        return io.columns_to_csv(columns)
    return io.to_json([dict(zip(columns, cells))
                       for cells in zip(*(c.tolist() for c in columns.values()))])


def _cmd_poles(args) -> str:
    p, n_in, _, ss = _point(args)
    ps = cavity.cavity_poles(ss, p)
    ep_minus, ep_plus = cavity.exceptional_points(p, n_in)
    return io.to_json({
        "poles_rad_s": [{"re": w.real, "im": w.imag} for w in ps.poles],
        "region": ps.region.value,
        "radicand": ps.radicand,
        "decay_extremum_residual": ps.decay_extremum_residual,
        "at_decay_extremum": ps.at_decay_extremum,
        "ep_delta_minus_rad_s": ep_minus,
        "ep_delta_plus_rad_s": ep_plus,
    })


def _cmd_cool(args) -> str:
    p, n_in, delta, ss = _point(args, 0.0)
    rep = cooling.occupation(ss, p)
    payload = dict(rep.to_dict(), detuning_rad_s=delta, n_in_per_s=n_in)
    if args.oracle:
        dm = oracle.build_matrix(ss, p)
        value, err = oracle.numeric_occupation(dm, oracle.input_correlators(p))
        payload.update(n_oracle=value, n_oracle_err=err,
                       oracle_rel_gap=abs(value - rep.n_rate) / rep.n_rate)
    return io.to_json(payload) if args.format == "json" else io.rows_to_csv([payload])


def _cmd_squeeze(args) -> str:
    p, n_in, delta, ss = _point(args, args.xi)
    sq = squeezing.matched_squeeze(ss, p, args.xi)
    n_ba_squeezed, wp, *_ = squeezing.squeezed_backaction(ss, p, args.xi)
    return io.to_json(dict(
        sq.to_dict(),
        detuning_rad_s=delta,
        n_in_per_s=n_in,
        optimal_phase_rad=sq.phase,
        wp=wp,
        n_ba_vacuum=cooling.backaction_limit(p, ss.delta_eff),
        n_ba_squeezed=n_ba_squeezed,
        n_m_squeezed=squeezing.occupation_with_squeezing(ss, p, sq),
    ))


def _spec_number(convert, raw: str, what: str):
    """`convert(raw)` for a sweep-spec value, as a config error on failure."""
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"{what} must be {convert.__name__}, got {raw!r}") from None


def _parse_axis(raw: str) -> AxisRange:
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) not in (3, 4):
        raise ConfigError(f"axis must be start,stop,count[,scale]: {raw!r}")
    scale = parts[3] if len(parts) == 4 else "linear"
    return AxisRange(_spec_number(float, parts[0], "axis start"),
                     _spec_number(float, parts[1], "axis stop"),
                     _spec_number(int, parts[2], "axis count"), scale)


#: Every key a sweep spec may set; any other key is a config error.
SPEC_KEYS = ("kind", "mode", "detuning_hz", "g0_hz", "omega_frac", "xi", "cap_fraction")


def spec_from_document(doc: dict) -> SweepSpec:
    """Build a SweepSpec from a flat key-value document."""
    unknown = [key for key in doc if key not in SPEC_KEYS]
    if unknown:
        raise ConfigError(f"unknown sweep spec key {', '.join(map(repr, unknown))}; "
                          f"known keys: {', '.join(SPEC_KEYS)}")
    if "kind" not in doc:
        raise ConfigError("sweep spec needs a 'kind' key")
    try:
        kind = SweepKind(doc["kind"].strip())
    except ValueError:
        raise ConfigError(f"unknown sweep kind {doc['kind']!r}") from None
    try:
        mode = Mode(doc["mode"].strip()) if "mode" in doc else None
    except ValueError:
        raise ConfigError(f"unknown sweep mode {doc['mode']!r}") from None
    ranges = {}
    for axis in ("detuning_hz", "g0_hz", "omega_frac"):
        if axis in doc:
            ranges[axis] = _parse_axis(doc[axis])
    xi = _spec_number(float, doc["xi"], "xi") if "xi" in doc else None
    cap = _spec_number(float, doc.get("cap_fraction", CRITICAL_POWER_FRACTION),
                       "cap_fraction")
    return SweepSpec(kind=kind, ranges=ranges, mode=mode, cap_fraction=cap,
                     squeeze_xi=xi)


def _cmd_sweep(args) -> str:
    p = _load_params(args)
    spec = spec_from_document(io.read_config_file(args.specfile))
    return _rows_text(sweeps.run_sweep(spec, p), args.format)


# ----------------------------------------------------------------------
# reproduction harness

def _profile_target(skew: bool, p: SystemParams, points: int | None):
    """The detuning profile at equal drive: fig2, fig3 and fig5 plot columns
    of one dataset, and fig4 trades its linear reference for the skewness
    columns."""
    ax = AxisRange(-12.0 * p.omega_m / TAU, -0.01 * p.omega_m / TAU,
                   points or (1201 if skew else sweeps.PROFILE_POINTS))
    n_in = sweeps.equal_drive(p, CRITICAL_POWER_FRACTION)
    return sweeps.detuning_profile(p, n_in, TAU * ax.grid(),
                                   include_skewness=skew, linear_reference=not skew)


def _coupling_target(p: SystemParams, points: int | None):
    spec = SweepSpec(SweepKind.COUPLING_SWEEP,
                     {"g0_hz": AxisRange(1.7e3, 35e3, points or sweeps.OUTER_AXIS_POINTS)})
    return sweeps.run_sweep(spec, p)


def _two_mode_target(kind: SweepKind, hi: float, xi_nl, xi_lin,
                     p: SystemParams, points: int | None):
    """Both modes at g0/2pi = 15 kHz on a log axis of omega_m/kappa from
    0.02 to hi; xi_nl and xi_lin are the squeezing of each mode's run."""
    ax = {"omega_frac": AxisRange(0.02, hi, points or sweeps.OUTER_AXIS_POINTS, "log")}
    p15 = p.replace(g0=TAU * 15e3)
    nl = sweeps.run_sweep(SweepSpec(kind, ax, Mode.NONLINEAR, squeeze_xi=xi_nl), p15)
    lin = sweeps.run_sweep(SweepSpec(kind, ax, Mode.LINEAR_COMPARISON, squeeze_xi=xi_lin), p15)
    # one row per omega_frac, the linear run's columns prefixed
    return [dict(a, **{f"linear_{col}": v for col, v in b.items() if col != "omega_frac"})
            for a, b in zip(nl, lin)]


def _map_target(p: SystemParams, points: int | None):
    m = points or sweeps.MAP_POINTS
    axes = {"g0_hz": AxisRange(2e3, 5e4, m, "log"),
            "omega_frac": AxisRange(0.05, 0.35, m)}
    rows = []
    for mode in (Mode.NONLINEAR, Mode.LINEAR_COMPARISON):
        spec = SweepSpec(SweepKind.GROUND_STATE_MAP, axes, mode)
        rows += [dict(row, mode=mode.value) for row in sweeps.run_sweep(spec, p)]
    return rows


def _table_values(p: SystemParams, points: int | None):
    n_in = sweeps.equal_drive(p, CRITICAL_POWER_FRACTION)
    _, c_nl = sweeps.max_damping_point(p, n_in)
    d_nl, nm_nl = sweeps.optimal_detuning(p, n_in)
    rep = cooling.occupation(steady.steady_at(p, d_nl, n_in), p)
    pl = p.without_kerr()
    _, c_lin = sweeps.max_damping_point(pl, n_in)
    _, nm_lin = sweeps.optimal_detuning(pl, n_in)
    return {
        "c_eff_nl": c_nl, "c_eff_lin": c_lin,
        "n_m_nl": nm_nl, "n_m_lin": nm_lin,
        "n_ba_share": rep.backaction_share,
        "n_th": p.n_th,
    }


_profile = functools.partial(_profile_target, False)

#: Every reproduce target: its dataset as f(p, points), a list of
#: rows or one JSON object.  fig2, fig3 and fig5 are one dataset.
_REPRODUCE = {
    "fig2": _profile, "fig3": _profile,
    "fig4": functools.partial(_profile_target, True),
    "fig5": _profile,
    "fig6": _coupling_target,
    "fig7": functools.partial(_two_mode_target, SweepKind.SIDEBAND_SWEEP, 2.0, None, None),
    "fig8": functools.partial(_two_mode_target, SweepKind.OPTIMAL_POWER_CURVE, 1.0, None, None),
    "fig9": functools.partial(_two_mode_target, SweepKind.SIDEBAND_SWEEP_SQUEEZED, 2.0, 0.9, 0.9),
    "fig10": functools.partial(_two_mode_target, SweepKind.SIDEBAND_SWEEP_SQUEEZED,
                               0.5, 0.44, 0.99),
    "appF": _map_target,
    "table-values": _table_values,
}
REPRODUCE_TARGETS = tuple(_REPRODUCE)


def _cmd_reproduce(args) -> str:
    result = _REPRODUCE[args.target](_load_params(args), args.points)
    return io.to_json(result) if isinstance(result, dict) else _rows_text(result, args.format)


# ----------------------------------------------------------------------

def _bounded(convert, lo, hi=math.inf):
    """argparse type: `convert(raw)`, refused outside [lo, hi]."""
    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {raw!r}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must lie in [{lo}, {hi}], got {raw}")
        return value
    return parse


#: A grid size, a `--jobs` value (accepted, unused), a squeezing purity,
#: and a spectrum half span: the spectra's denominators grow as omega^4,
#: so the angular end of the grid keeps its fourth power finite (every
#: kind, with and without --oracle, evaluates up to this bound).
_grid_points = _bounded(int, 2)
_jobs = _bounded(int, 1)
_purity = _bounded(float, 0.0, 1.0)
_span_hz = _bounded(float, 0.0, math.sqrt(math.sqrt(sys.float_info.max)) / TAU)


def _add_common(sub):
    sub.add_argument("--config", help="key-value parameter file (cyclic Hz)")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--jobs", type=_jobs, default=1,
                     help="accepted for compatibility: sweeps run serially and"
                          " the value has no effect")


def _add_oracle(sub):
    sub.add_argument("--oracle", action="store_true",
                     help="attach brute-force cross-checks")


def _add_point(sub):
    sub.add_argument("--detuning-hz", type=float, default=None,
                     help="drive detuning in cyclic Hz (default: bifurcation"
                          " detuning, or the cooling optimum for"
                          " cool/squeeze/spectrum)")
    sub.add_argument("--n-in", type=float, default=None,
                     help="input photon flux (photons/s)")
    sub.add_argument("--n-in-frac", type=float, default=None,
                     help="input flux as a fraction of the bifurcation drive")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process.  A process that makes
    many calls (the test suite, the benchmark) otherwise keeps about
    600 B per call that argparse does not give back, and pays a few ms
    per call to rebuild it."""
    parser = _Parser(prog="kerrcool",
                     description="Kerr-cavity enhanced backaction cooling toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("steady", help="classical branches and bifurcation data")
    _add_common(s); _add_point(s)
    s.set_defaults(func=_cmd_steady)

    s = subs.add_parser("spectrum", help="photon / force / mechanical spectrum to CSV")
    _add_common(s); _add_point(s); _add_oracle(s)
    s.add_argument("--kind", choices=("nn", "ff", "bb"), default="nn")
    s.add_argument("--points", type=_grid_points, default=2001)
    s.add_argument("--omega-span-hz", type=_span_hz, default=None,
                   help="half span of the frequency grid in cyclic Hz"
                        " (default, or 0: 10 kappa)")
    s.add_argument("--xi", type=_purity, default=None)
    s.add_argument("--n-s", type=float, default=None)
    s.add_argument("--squeeze-db", type=float, default=None)
    s.set_defaults(func=_cmd_spectrum)

    s = subs.add_parser("poles", help="spectrum poles and exceptional points")
    _add_common(s); _add_point(s)
    s.set_defaults(func=_cmd_poles)

    s = subs.add_parser("cool", help="cooling report at an operating point")
    _add_common(s); _add_point(s); _add_oracle(s)
    s.set_defaults(func=_cmd_cool)

    s = subs.add_parser("squeeze", help="matched squeezed drive and suppressed backaction")
    _add_common(s); _add_point(s)
    s.add_argument("--xi", type=_purity, required=True)
    s.set_defaults(func=_cmd_squeeze)

    s = subs.add_parser("sweep", help="run a sweep spec file")
    _add_common(s)
    s.add_argument("specfile")
    s.set_defaults(func=_cmd_sweep)

    s = subs.add_parser("reproduce", help="emit a figure/table dataset")
    _add_common(s)
    s.add_argument("target", choices=REPRODUCE_TARGETS)
    s.add_argument("--points", type=_grid_points, default=None)
    s.set_defaults(func=_cmd_reproduce)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        io.emit(args.func(args), args.out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except KerrcoolError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
