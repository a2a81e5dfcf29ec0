"""CLI fuzzing: argv drawn from `build_parser()` itself, run in-process.

Every sub-command is drawn with each of its options omitted or set.  A
numeric option is a valid value or one of the faults in `FAULTS`; config
and sweep-spec files hold valid, missing-key, zero, garbage, empty or
non-UTF-8 content or do not exist; `--out` is stdout, a file, a path into
a missing directory or a directory.  Whatever is drawn, the exit code is
one of 0, 1, 2, 3, no traceback reaches stderr, a failed call writes
nothing to stdout, JSON output parses strictly, and no sweep row records
an internal fault.  pytest turns warnings into errors (pyproject.toml),
so a numpy warning that escapes fails its case too.

Grids stay small: `--points` is always given, at most 50 and, for
`reproduce`, 2 or 3, and spec axes hold 2 or 3 points.  Huge grids are
out of scope: they cost memory and time, not a broken contract.
"""
import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kerrcool.cli import build_parser, run_cli

#: A valid value of each numeric option other than --points.
VALID = {"--detuning-hz": "-2.6e6", "--n-in": "3e7", "--n-in-frac": "0.5",
         "--xi": "0.9", "--n-s": "2", "--squeeze-db": "3",
         "--omega-span-hz": "1e7", "--jobs": "1"}
#: What a numeric option is drawn as besides its valid value.
FAULTS = ("0", "-1", "nan", "inf", "1e308", "x")

CONFIGS = {
    "valid.cfg": "f_m = 0.3e6\ngamma_m = 0.5\nkappa = 3e6\nkerr = 0.16e6\n"
                 "g0 = 1.7e3\nn_th = 2778\n",
    "missing.cfg": "f_m = 0.3e6\nkappa = 3e6\n",
    "zero.cfg": "f_m = 0\ngamma_m = 0\nkappa = 0\nkerr = 0\ng0 = 0\nn_th = 0\n",
    "linear.cfg": "f_m = 0.3e6\ngamma_m = 0.5\nkappa = 3e6\nkerr = 0\ng0 = 0\nn_th = 2778\n",
    "garbage.cfg": "f_m = fast\nkappa: 3e6, 4e6\nno separator here\n",
}
SPECS = {
    "profile.spec": "kind = detuning_profile\ndetuning_hz = -3e6, -1e6, 3\n",
    "squeezed.spec": "kind = sideband_sweep_squeezed\nomega_frac = 0.1, 0.5, 2\nxi = 0.9\n",
    "power.spec": "kind = optimal_power_curve\nomega_frac = 0.1, 0.3, 2\n",
    "map.spec": "kind = ground_state_map\ng0_hz = 2e3, 5e4, 2, log\nomega_frac = 0.05, 0.35, 2\n",
    "missing.spec": "omega_frac = 0.1, 0.5, 2\n",
    "zero.spec": "kind = coupling_sweep\ng0_hz = 0, 0, 0\n",
    "garbage.spec": "kind = sideways\nomega_frac = a, b\n",
}
#: Content shared by the config and spec pools.
COMMON = {"empty": b"", "non-utf8": b"\xff\xfe k\x00i\x00n\x00d\x00"}


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """(good, bad) paths for --config, the sweep spec file and --out."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in {**CONFIGS, **SPECS}.items():
        (root / name).write_text(text)
    for name, data in COMMON.items():
        (root / name).write_bytes(data)
    common = [str(root / name) for name in (*COMMON, "absent")]

    def split(names, good):
        return ([str(root / n) for n in names if n in good],
                [str(root / n) for n in names if n not in good] + common)

    return {"--config": split(CONFIGS, ("valid.cfg", "linear.cfg")),
            "specfile": split(SPECS, ("profile.spec", "squeezed.spec", "power.spec", "map.spec")),
            "--out": (["-", str(root / "out.txt")], [str(root / "no-dir" / "out.txt"), str(root)])}


def _subcommands() -> dict:
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _draw_argv(draw, pools) -> list:
    """One argv for a sub-command drawn from the parser's own actions.  A
    value is drawn from its bad pool one time in four, so that most calls
    get past the parser and reach the numerics."""
    command = draw(st.sampled_from(sorted(_subcommands())))
    argv = [command]
    for action in _subcommands()[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0] if action.option_strings else None
        if action.nargs == 0:
            if draw(st.booleans()):
                argv.append(flag)
            continue
        if action.choices:
            good, bad = sorted(action.choices), ()
        elif action.dest == "points":
            good = [str(n) for n in (range(2, 4) if command == "reproduce" else range(2, 51))]
            bad = FAULTS
        else:
            good, bad = pools.get(flag or action.dest) or ([VALID[flag]], FAULTS)
        value = draw(st.sampled_from(bad if bad and draw(st.integers(0, 3)) == 0 else good))
        if flag is None:
            argv.append(value)
        elif action.required or action.dest == "points" or draw(st.booleans()):
            argv += [flag, value]
    return argv


def _refuse(constant):
    raise ValueError(f"non-finite number {constant} in JSON")


@seed(20261021)
@settings(max_examples=300, database=None, deadline=None)
@given(st.data())
def test_every_input_honours_the_exit_code_contract(pools, data):
    argv = data.draw(st.composite(_draw_argv)(pools), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
        return
    target = argv[argv.index("--out") + 1] if "--out" in argv else "-"
    text = out.getvalue() if target == "-" else Path(target).read_text()
    assert "internal:" not in text
    always_json = argv[0] in ("steady", "poles", "squeeze") or "table-values" in argv
    if always_json or "json" in argv:
        json.loads(text, parse_constant=_refuse)
