"""Figure-ready sweep tables: metadata, CSV and JSON serialization.

Numbers are written with 17 significant digits so binary64 values
round-trip exactly; booleans are written as 0/1.  CSV files carry the
metadata as leading ``#`` comment lines (the timestamp on its own line
so consumers can diff files modulo that line); JSON files are a single
object ``{"metadata": ..., "columns": ..., "rows": ...}``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import ConfigError

__all__ = [
    "SweepTable",
    "build_metadata",
    "config_hash",
    "write_table",
    "render_csv",
    "render_json",
    "read_csv",
    "read_json",
]


@dataclass(frozen=True)
class SweepTable:
    """Column-major description plus row tuples.

    ``columns`` are ``(name, unit)`` pairs; the unit string "1" marks a
    dimensionless column.
    """

    columns: tuple[tuple[str, str], ...]
    rows: tuple[tuple, ...]
    metadata: dict = field(default_factory=dict)

    def column_labels(self) -> tuple[str, ...]:
        return tuple(f"{name} ({unit})" for name, unit in self.columns)

    def column_index(self, name: str) -> int:
        for i, (col, _unit) in enumerate(self.columns):
            if col == name:
                return i
        raise KeyError(name)

    def column(self, name: str) -> list:
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]


def config_hash(resolved: dict) -> str:
    """Stable content hash of a resolved config dict."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_metadata(command: str, resolved: dict) -> dict:
    """Metadata embedded in every table: enough to reproduce the run."""
    from . import __version__

    return {
        "command": command,
        "config": resolved,
        "config_hash": config_hash(resolved),
        "generator": f"spaserkit {__version__}",
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def render_csv(table: SweepTable) -> str:
    out = io.StringIO()
    meta = dict(table.metadata)
    timestamp = meta.pop("timestamp", None)
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        out.write(f"# {key}: {value}\n")
    if timestamp is not None:
        out.write(f"# timestamp: {timestamp}\n")
    out.write(",".join(table.column_labels()) + "\n")
    # one "%" per row of plain floats: "%.17g" % x is _format_cell(x) for any float
    ncols = len(table.columns)
    float_row = ",".join(["%.17g"] * ncols) + "\n"
    for row in table.rows:
        if len(row) == ncols and {float}.issuperset(map(type, row)):
            out.write(float_row % tuple(row))
        else:
            out.write(",".join(_format_cell(cell) for cell in row) + "\n")
    return out.getvalue()


def _jsonable_cell(value):
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def render_json(table: SweepTable) -> str:
    payload = {
        "metadata": table.metadata,
        "columns": [{"name": name, "unit": unit} for name, unit in table.columns],
        "rows": [[_jsonable_cell(cell) for cell in row] for row in table.rows],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_table(table: SweepTable, path: str | None, fmt: str) -> str:
    """Serialize and (when ``path`` is given) write the table.

    Returns the rendered text either way so callers can print to stdout.
    """
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text


def _parse_cell(text: str):
    if text == "nan":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: str) -> SweepTable:
    """Parse a table written by :func:`render_csv` (numbers as floats)."""
    metadata: dict = {}
    header: list[str] | None = None
    rows: list[tuple] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, _, value = body.partition(":")
                value = value.strip()
                try:
                    metadata[key.strip()] = json.loads(value)
                except json.JSONDecodeError:
                    metadata[key.strip()] = value
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(tuple(_parse_cell(cell) for cell in line.split(",")))
    if header is None:
        raise ConfigError(f"no header row in {path}")
    columns = []
    for label in header:
        name, _, unit = label.rpartition(" (")
        columns.append((name, unit[:-1]) if name else (label, "1"))
    return SweepTable(columns=tuple(columns), rows=tuple(rows), metadata=metadata)


def read_json(path: str) -> SweepTable:
    """Parse a table written by :func:`render_json`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    columns = tuple((c["name"], c["unit"]) for c in payload["columns"])
    rows = tuple(
        tuple(math.nan if cell is None else cell for cell in row)
        for row in payload["rows"]
    )
    return SweepTable(columns=columns, rows=rows, metadata=payload["metadata"])
