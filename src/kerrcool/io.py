"""Config parsing and deterministic CSV/JSON output."""
from __future__ import annotations

import csv
import json
import math
import sys
from io import StringIO
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
        text = Path(path).read_text()
    except OSError as exc:
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


def rows_to_csv(rows: list) -> str:
    """Render dict rows as CSV (first line header).

    The columns are the union of keys in first-appearance order.  Cells
    holding a comma, quote or line break are quoted, as is the lone empty
    cell of a one-column row; all others are written bare.
    """
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def _json_default(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "value"):
        return value.value
    raise TypeError(f"not JSON serializable: {type(value)}")


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def emit(text: str, out: str | None):
    """Write to a file or stdout."""
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
