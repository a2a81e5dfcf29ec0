"""The column-wise CSV writer against the row-wise `csv.writer` it replaced,
and its output read back by `csv.reader`."""
import csv
import io
import math
import random

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kerrcool.io import columns_to_csv, rows_to_csv


def _old_format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "%.12g" % value
    return str(value)


def _old_rows_to_csv(rows: list) -> str:
    """The row-by-row writer: csv.writer with a newline line terminator."""
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_old_format_cell(row.get(col)) for col in columns])
    return buf.getvalue()


_FLOATS = (0.0, -0.0, 1.5, -2.25e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e-310, 1.7976931348623157e308, math.nan, -math.nan, math.inf, -math.inf,
           1 / 3, 123456789012345.6, 1e21, -7.0)
_TEXTS = ("", "ok", "a,b", 'say "no"', "two\nlines", '",\n"', " padded ", "'", ";", "\t",
          "bracket (0.05, 0.35)", '"', ",", "\n")
_KEYS = ("x", "n_m", "a,b", 'q"k', "line\nbreak", " s", "error", "")


def _random_cell(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(_FLOATS)
    if kind == 1:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-320, 300)
    if kind == 2:
        return np.float64(rng.choice(_FLOATS + (rng.gauss(0.0, 1e3),)))
    if kind == 3:
        return rng.choice((True, False))
    if kind == 4:
        return rng.randint(-10 ** 6, 10 ** 6)
    if kind == 5:
        return None
    return rng.choice(_TEXTS)


def _random_table(rng: random.Random) -> list:
    keys = rng.sample(_KEYS, rng.randint(1, 4))
    float_column = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(0, 12)):
        row = {}
        for key in keys:
            if rng.random() < 0.85:
                row[key] = (rng.choice(_FLOATS) if float_column and key == keys[0]
                            else _random_cell(rng))
        rows.append(row)
    return rows


class TestMatchesRowWriter:
    def test_seeded_random_tables(self):
        rng = random.Random(20230133)
        for _ in range(3000):
            rows = _random_table(rng)
            assert rows_to_csv(rows) == _old_rows_to_csv(rows), rows

    def test_float_columns(self):
        # every cell a float: the one-pass formatting path
        rng = random.Random(7)
        for _ in range(200):
            rows = [{"w": rng.choice(_FLOATS), "s": np.float64(rng.gauss(0.0, 1.0)),
                     "t": rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-310, 300)}
                    for _ in range(rng.randint(1, 20))]
            assert rows_to_csv(rows) == _old_rows_to_csv(rows)

    def test_one_column_empty_cells(self):
        for rows in ([{"a": None}], [{"a": ""}, {"a": 1.0}], [{}, {"a": "x"}],
                     [{"": None}], [{"": 1.0}], [{"a": None}, {"a": None}]):
            assert rows_to_csv(rows) == _old_rows_to_csv(rows)
        assert rows_to_csv([{"a": None}, {"a": 2.0}]) == 'a\n""\n2\n'

    def test_no_rows_and_no_keys(self):
        for rows in ([], [{}], [{}, {}, {}]):
            assert rows_to_csv(rows) == _old_rows_to_csv(rows) == "\n" * (len(rows) + 1)

    def test_spectrum_table(self):
        # `spectrum` hands its arrays to columns_to_csv as they are
        grid = np.linspace(-1e8, 1e8, 2001)
        values = np.random.default_rng(3).lognormal(0.0, 30.0, 2001)
        columns = {"omega_rad_s": grid, "s_nn": values, "oracle": values * (1 + 1e-13),
                   "index": np.arange(2001)}
        rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
        assert columns_to_csv(columns) == rows_to_csv(rows) == _old_rows_to_csv(rows)


_TEXT_CELLS = st.text(alphabet=st.sampled_from(list('ab ,"\n\r\t;x1.')), max_size=8)


class TestReadsBack:
    @seed(20230133)
    @settings(max_examples=150, database=None, deadline=None)
    @given(st.lists(st.lists(_TEXT_CELLS, min_size=3, max_size=3), min_size=1, max_size=6))
    def test_text_cells_round_trip(self, table):
        # carriage returns are quoted too, so csv.reader sees one record per
        # row and every record has the header's field count
        rows = [dict(zip(("a", "b,c", 'd"'), cells)) for cells in table]
        back = list(csv.reader(io.StringIO(rows_to_csv(rows), newline="")))
        assert [len(record) for record in back] == [3] * (len(table) + 1)
        assert back[0] == ["a", "b,c", 'd"']
        assert back[1:] == table

    def test_carriage_return_is_quoted(self):
        assert rows_to_csv([{"a": "x\ry", "b": 1.0}]) == 'a,b\n"x\ry",1\n'
