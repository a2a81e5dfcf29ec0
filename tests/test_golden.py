"""Reduced-resolution `kerrcool reproduce` outputs against stored goldens.

The files under tests/golden/ were written by the code before the rates,
resolvent and SteadyState constructors were merged into one function each;
fig6, fig9 and table-values were written again when the 1-D optima became
roots of exact slopes, which moved their argmin cells toward the 40-digit
stationary points.  fig7, fig8 and fig10 were written before the sweep
kinds and reproduce targets became tables; fig6 and fig8 were written
again when their constant `converged` columns were dropped, every other
cell unchanged.  appF_points10.csv, at the map benchmark's column density
of 10 cells (10 columns per mode, 11 of its 20 boundaries crossing inside
the window), was written before the map ran by coupling column and started
each boundary in its column's cells.  Text cells must match exactly;
numeric cells to 1e-10 relative, which leaves room for last-bit rounding
but not for a changed formula.

full_resolution.sha256 pins the bytes of every target at its default
resolution.  All but appF (about 7 s) are checked here; the README's loop
checks all 11.  The sums were written with an 80-bit long double, which
the scalar root's polish runs in, so elsewhere that check is skipped.
"""
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kerrcool.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-10

CASES = [
    ("fig2_points101.csv", ["fig2", "--points", "101"]),
    ("fig4_points41.csv", ["fig4", "--points", "41"]),
    ("fig6_points3.csv", ["fig6", "--points", "3"]),
    ("fig7_points3.csv", ["fig7", "--points", "3"]),
    ("fig8_points3.csv", ["fig8", "--points", "3"]),
    ("fig9_points3.csv", ["fig9", "--points", "3"]),
    ("fig10_points3.csv", ["fig10", "--points", "3"]),
    ("appF_points3.csv", ["appF", "--points", "3"]),
    ("appF_points10.csv", ["appF", "--points", "10"]),
    ("table-values.json", ["table-values", "--format", "json"]),
]


def _as_number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _same_cell(expected, actual):
    """Exact for text and booleans, 1e-10 relative for numbers."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected == actual
    x, y = _as_number(expected), _as_number(actual)
    if x is None or y is None:
        return expected == actual
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=RTOL, abs_tol=0.0)


def _cells(name, text):
    """(location, value) pairs of a CSV table or a flat JSON object."""
    if name.endswith(".json"):
        return sorted(json.loads(text).items())
    rows = list(csv.reader(text.splitlines()))
    header = rows[0]
    return [(header, None)] + [((i, col), cell) for i, row in enumerate(rows[1:])
                               for col, cell in zip(header, row)] + [("rows", len(rows))]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_reproduce_matches_golden(name, argv, tmp_path):
    out = tmp_path / name
    assert run_cli(["reproduce", *argv, "--out", str(out)]) == 0
    expected = _cells(name, (GOLDEN / name).read_text())
    actual = _cells(name, out.read_text())
    assert [loc for loc, _ in actual] == [loc for loc, _ in expected]
    bad = [(loc, e, a) for (loc, e), (_, a) in zip(expected, actual) if not _same_cell(e, a)]
    assert not bad, f"{len(bad)} cells differ, first: {bad[:3]}"


@pytest.mark.parametrize("target", ["fig3", "fig5"])
def test_profile_targets_are_one_dataset(target, tmp_path):
    # fig2, fig3 and fig5 plot different columns of one detuning profile
    outs = {t: tmp_path / f"{t}.csv" for t in ("fig2", target)}
    for t, out in outs.items():
        assert run_cli(["reproduce", t, "--points", "101", "--out", str(out)]) == 0
    assert outs[target].read_bytes() == outs["fig2"].read_bytes()


SUMS = {name: digest for digest, name in
        (line.split() for line in (GOLDEN / "full_resolution.sha256").read_text().splitlines())}


@pytest.mark.skipif((np.finfo(np.longdouble).nmant, np.finfo(np.longdouble).nexp) != (63, 15),
                    reason="the sums were written with the 80-bit x87 long double")
@pytest.mark.parametrize("name", [name for name in SUMS if name != "appF.csv"])
def test_default_resolution_bytes(name, tmp_path):
    out = tmp_path / name
    assert run_cli(["reproduce", Path(name).stem, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUMS[name]
