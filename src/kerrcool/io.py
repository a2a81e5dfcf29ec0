"""Config parsing and deterministic CSV/JSON output."""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .errors import ConfigError

#: Floating point output carries 12 significant digits.
FLOAT_FORMAT = "%.12g"


def read_key_value_text(text: str) -> dict:
    """Parse a flat key-value document: one `key = value` per line,
    `#` comments, blank lines ignored."""
    doc = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, value = line.split(sep, 1)
                break
        else:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        doc[key.strip()] = value.strip()
    return doc


def read_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return read_key_value_text(text)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return FLOAT_FORMAT % value
    return str(value)


def _quote(text: str) -> str:
    """One CSV field: quoted, inner quotes doubled, when it holds a comma,
    a quote, a newline or a carriage return."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def columns_to_csv(columns: dict) -> str:
    """Render named columns of equal length (lists, or numpy arrays) as CSV,
    first line header.  Cells holding a comma, a quote, a newline or a
    carriage return are quoted, as is the lone empty cell of a one-column
    table; all others are written bare.  An all-float column (np.float64
    included) enters each line through one "%.12g" field of a line format,
    which prints nan and +-inf as `_format_cell` does and never a character
    that needs quoting; any other column is formatted cell by cell."""
    formats, cells = [], []
    for column in columns.values():
        if hasattr(column, "tolist"):
            column = column.tolist()
        if all(issubclass(t, float) for t in set(map(type, column))):
            formats.append(FLOAT_FORMAT)
        else:
            formats.append("%s")
            column = [_quote(_format_cell(value)) for value in column]
        cells.append(column)
    lines = list(map(",".join(formats).__mod__, zip(*cells)))
    lines.insert(0, ",".join(_quote(str(col)) for col in columns))
    if len(columns) == 1:
        # an empty line would read as no row at all
        lines = [line or '""' for line in lines]
    lines.append("")
    return "\n".join(lines)


def rows_to_csv(rows: list) -> str:
    """`columns_to_csv` of dict rows: the union of keys in first-appearance
    order, a missing key an empty cell."""
    columns = dict.fromkeys(key for row in rows for key in row)
    if not columns:
        return "\n" * (len(rows) + 1)
    return columns_to_csv({col: [row.get(col) for row in rows] for col in columns})


def _finite(value):
    """`value` with every non-finite float in it, at any depth of dicts,
    lists and tuples, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _json_default(value):
    if isinstance(value, complex):
        return _finite({"re": value.real, "im": value.imag})
    if hasattr(value, "item"):
        return _finite(value.item())
    if hasattr(value, "value"):
        return value.value
    raise TypeError(f"not JSON serializable: {type(value)}")


def to_json(payload) -> str:
    """Strict JSON: a non-finite float is written as null (CSV keeps nan)."""
    return json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default) + "\n"


def emit(text: str, out: str | None):
    """Write to a file or stdout; a file that cannot be written is a
    ConfigError naming its path."""
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out}: {exc}") from exc
