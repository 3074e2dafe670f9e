"""Deterministic table serialization for the command line tools.

Identical run configurations must serialize to identical bytes, so
there are no timestamps, no locale-dependent formatting, and floats
are written with %.17g (enough digits to round-trip a double).  CSV
carries the tool version, schema tag, config echo and any extra
metadata in leading '#' comment lines; JSON carries the same fields in
the document.

A table is held as columns: ``Table.columns`` names them and
``Table.data`` holds one sequence per name, all of one length.  A
column is one of three kinds:

- a ``range`` (row indices), written with str;
- a float64 ndarray (probabilities), written by ``_float_cells``;
- a list, whose value types are checked once.  A list of plain floats
  goes through ``_float_cells`` too, one of plain ints maps str, one of
  plain bools a true/false lookup, one of plain strings the quoting
  and one of None only empty cells; any other list (mixed types, numpy
  scalars) takes ``_csv_cell`` per cell.

``_float_cells`` formats with "%.17g" only the cells that are not
+0.0 (``(x != 0) | signbit(x)``, so -0.0, NaN and inf are kept).  The
+0.0 cells are "0", which is what "%.17g" writes for them, and NaN
cells ("nan", whatever the sign) become empty.  "%.17g" % x and
format(x, ".17g") are the same double-to-string call, so every cell
has the bytes of the per-cell writer ``_csv_cell``; only the exact
zeros of a sparse column, such as the cells outside an ``evolve``
light cone, skip the call.  JSON turns each column into a list once
(``tolist`` or ``list``) and runs ``_clean`` only on the columns that
hold a NaN or a value that is not a plain float, int, bool, str or
None.  Tables are rectangular: ``Table`` raises ValueError when the
columns do not match the names in number or differ in length.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import __version__ as TOOL_VERSION

TOOL_NAME = "cyclewalk"


@dataclass
class Table:
    """One rectangular result set plus identifying metadata.

    ``data`` holds one column per name in ``columns``.  ``rows`` takes
    row tuples from callers written for the earlier row layout; they
    are transposed into ``data`` once and not kept.
    """

    schema: str
    config: dict
    columns: tuple
    data: tuple = ()
    meta: dict = field(default_factory=dict)
    rows: InitVar[list | None] = None

    def __post_init__(self, rows):
        if rows is not None:
            self.data = (tuple(map(list, zip(*rows, strict=True)))
                         or tuple([] for _ in self.columns))
        if len(self.data) != len(self.columns):
            raise ValueError("table has %d columns for %d names"
                             % (len(self.data), len(self.columns)))
        lengths = sorted(set(map(len, self.data)))
        if len(lengths) > 1:
            raise ValueError("table columns differ in length: %s"
                             % ", ".join(map(str, lengths)))


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


def _float_cells(x) -> list:
    """The CSV cells of a float64 array; "%.17g" only off +0.0."""
    keep = (x != 0) | np.signbit(x)  # NaN != 0 holds
    texts = list(map(_FLOAT_CELL, x[keep].tolist()))
    if "nan" in texts:
        texts = ["" if c == "nan" else c for c in texts]
    if len(texts) == len(x):
        return texts
    cells = np.full(len(x), "0", dtype=object)
    cells[keep] = texts
    return cells.tolist()


def _csv_column(column) -> list:
    """The CSV cells of one column, as _csv_cell would write them."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return _float_cells(column)
    # An f-string formats a plain int faster than map(str, ...).
    if isinstance(column, range):
        return [f"{i}" for i in column]
    kinds = set(map(type, column))
    if kinds == {float}:
        return _float_cells(np.array(column, dtype=np.float64))
    if kinds == {int}:
        return [f"{i}" for i in column]
    if kinds == {bool}:
        return list(map(_BOOL_CELL, column))
    if kinds == {str}:
        return list(map(_quote, column))
    if kinds == {type(None)}:
        return [""] * len(column)
    return list(map(_csv_cell, column))


def _json_column(column) -> list:
    """One column as a list, NaN as None, numpy scalars as Python values."""
    column = (column.tolist() if isinstance(column, np.ndarray)
              else list(column))
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
    lines.extend(map(",".join, zip(*map(_csv_column, table.data))))
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    doc = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "schema": table.schema,
        "config": table.config,
        "meta": table.meta,
        "columns": list(table.columns),
        "rows": list(map(list, zip(*map(_json_column, table.data)))),
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
