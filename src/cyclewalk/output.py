"""Deterministic table serialization for the command line tools.

Identical run configurations must serialize to identical bytes, so
there are no timestamps, no locale-dependent formatting, and floats
are written with %.17g (enough digits to round-trip a double).  CSV
carries the tool version, schema tag, config echo and any extra
metadata in leading '#' comment lines; JSON carries the same fields in
the document.

Both writers work a column at a time: the rows are transposed once
with zip(*rows) and each column's value types are checked once.  A CSV
column of plain floats maps one bound "%.17g".__mod__ over its values,
and its NaN cells ("nan", whatever the sign) become empty; "%.17g" % x
and format(x, ".17g") are the same double-to-string call, so the bytes
are those of the per-cell writer ``_csv_cell``.  A column of plain ints
maps str, one of plain bools a true/false lookup, one of plain strings
the quoting and one of None only empty cells; every other column
(mixed types, numpy scalars) takes ``_csv_cell`` per cell.  JSON runs
``_clean`` only on the columns that hold a NaN or a value that is not
a plain float, int, bool, str or None.  Tables are rectangular: every
row has one value per column.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__ as TOOL_VERSION

TOOL_NAME = "cyclewalk"


@dataclass
class Table:
    """One rectangular result set plus identifying metadata."""

    schema: str
    config: dict
    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)


def _clean(value):
    # Normalize numpy scalars and NaN so both writers agree on types.
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _quote(text: str) -> str:
    # A text that holds the separator, a quote or a line break is quoted.
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_cell(value) -> str:
    value = _clean(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    return _quote(str(value))


_FLOAT_CELL = "%.17g".__mod__
_BOOL_CELL = {True: "true", False: "false"}.__getitem__
# Value types that json writes as they are (a float may be NaN).
_JSON_AS_IS = frozenset((int, bool, str, type(None)))


def _csv_column(column) -> list:
    """The CSV cells of one column, as _csv_cell would write them."""
    kinds = set(map(type, column))
    if kinds == {float}:
        cells = list(map(_FLOAT_CELL, column))
        if "nan" in cells:
            cells = ["" if c == "nan" else c for c in cells]
        return cells
    if kinds == {int}:
        return list(map(str, column))
    if kinds == {bool}:
        return list(map(_BOOL_CELL, column))
    if kinds == {str}:
        return list(map(_quote, column))
    if kinds == {type(None)}:
        return [""] * len(column)
    return list(map(_csv_cell, column))


def _json_column(column):
    """One column with NaN as None and numpy scalars as Python values."""
    kinds = set(map(type, column))
    if kinds == {float}:
        clean = any(map(math.isnan, column))
    else:
        clean = not kinds <= _JSON_AS_IS
    return list(map(_clean, column)) if clean else column


def _config_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def render_csv(table: Table) -> str:
    lines = ["# %s %s schema=%s" % (TOOL_NAME, TOOL_VERSION, table.schema),
             "# config=%s" % _config_json(table.config)]
    for key in sorted(table.meta):
        lines.append("# %s=%s" % (key, _csv_cell(table.meta[key])))
    lines.append(",".join(map(_quote, table.columns)))
    lines.extend(map(",".join, zip(*map(_csv_column, zip(*table.rows)))))
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    doc = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "schema": table.schema,
        "config": table.config,
        "meta": table.meta,
        "columns": list(table.columns),
        "rows": list(map(list, zip(*map(_json_column, zip(*table.rows))))),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=1, allow_nan=False) + "\n"


def render(table: Table, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(table)
    if fmt == "json":
        return render_json(table)
    raise ValueError("unknown output format %r" % fmt)


def write_table(table: Table, fmt: str, out_path: str | None):
    """Render to out_path, or stdout when out_path is None."""
    text = render(table, fmt)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
