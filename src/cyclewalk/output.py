"""Deterministic table serialization for the command line tools.

Identical run configurations must serialize to identical bytes, so
there are no timestamps, no locale-dependent formatting, and floats
are written with %.17g (enough digits to round-trip a double).  CSV
carries the tool version, schema tag, config echo and any extra
metadata in leading '#' comment lines; JSON carries the same fields in
the document.
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
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _config_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def render_csv(table: Table) -> str:
    lines = ["# %s %s schema=%s" % (TOOL_NAME, TOOL_VERSION, table.schema),
             "# config=%s" % _config_json(table.config)]
    for key in sorted(table.meta):
        lines.append("# %s=%s" % (key, _csv_cell(table.meta[key])))
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    doc = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "schema": table.schema,
        "config": table.config,
        "meta": table.meta,
        "columns": list(table.columns),
        "rows": [[_clean(v) for v in row] for row in table.rows],
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
