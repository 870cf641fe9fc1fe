"""Figure-ready sweep tables: metadata, CSV and JSON serialization.

Numbers are written with 17 significant digits so binary64 values
round-trip exactly; booleans are written as 0/1.  CSV files carry the
metadata as leading ``#`` comment lines (the timestamp on its own line
so consumers can diff files modulo that line); JSON files are a single
object ``{"metadata": ..., "columns": ..., "rows": ...}``.

Cells are formatted in one place, :func:`render_row`, which gives one
row's text exactly as the whole document carries it.  A table row may
therefore be a tuple of cells or a line ``render_row`` already made: the
CLI renders each grid point's rows in the worker that computed them and
hands the lines to :func:`write_table`, which writes them as they are.
The rows of one grid point share their axis cells; :func:`render_rows`
writes that shared text once and joins it to each row's, so its lines
are ``render_row``'s, byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
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
    "render_row",
    "render_rows",
    "render_json",
    "read_csv",
    "read_json",
]


@dataclass(frozen=True)
class SweepTable:
    """Column-major description plus rows.

    ``columns`` are ``(name, unit)`` pairs; the unit string "1" marks a
    dimensionless column.  A row is a tuple of cells or, as the CLI
    builds them, the ``str`` that :func:`render_row` made of one.
    """

    columns: tuple[tuple[str, str], ...]
    rows: tuple[tuple | str, ...]
    metadata: dict = field(default_factory=dict)

    def column_labels(self) -> tuple[str, ...]:
        return tuple(f"{name} ({unit})" for name, unit in self.columns)

    def column_index(self, name: str) -> int:
        for i, (col, _unit) in enumerate(self.columns):
            if col == name:
                return i
        raise KeyError(name)


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


def _json_cell(value) -> str:
    """The cell as ``json.dumps`` writes it, with NaN as null and a bool
    as 0/1."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "null"
        if math.isinf(value):
            return "Infinity" if value > 0.0 else "-Infinity"
        return float.__repr__(value)
    return json.dumps(value)


@functools.cache
def _float_row(ncells: int) -> str:
    # one "%" per row of plain floats: "%.17g" % x is _format_cell(x) for any float
    return ",".join(["%.17g"] * ncells) + "\n"


# the text of a JSON row before its first cell, between two cells, after its last
_JSON_OPEN, _JSON_SEP, _JSON_CLOSE = "  [\n   ", ",\n   ", "\n  ]"


def render_row(cells, fmt: str) -> str:
    """One data row, exactly as the table renderers write it.

    A CSV row is its cells joined by commas, with its newline.  A JSON
    row is the row's list at indent 2 of the document, without the
    ``",\n"`` that separates it from the next; NaN becomes null and a
    bool 0/1.
    """
    if fmt == "csv":
        if {float}.issuperset(map(type, cells)):
            return _float_row(len(cells)) % tuple(cells)
        return ",".join(_format_cell(cell) for cell in cells) + "\n"
    if fmt == "json":
        if not cells:
            return "  []"
        return _JSON_OPEN + _JSON_SEP.join(map(_json_cell, cells)) + _JSON_CLOSE
    raise ConfigError(f"unknown output format {fmt!r}")


def render_rows(head: tuple, rows, fmt: str) -> list[str]:
    """``[render_row(head + tuple(row), fmt) for row in rows]`` for a
    sequence of rows that share their first cells ``head`` (a grid
    point's axis values), with the text of ``head`` made once.

    Each line is the text ``render_row`` makes of ``head`` joined to the
    text it makes of the row, so a cell is still written by its one rule.
    When the rows all have one nonzero length and only ``float`` cells, a
    CSV line is one ``%`` on a template that already holds ``head``.
    """
    if not head:
        return [render_row(row, fmt) for row in rows]
    alone = render_row(head, fmt)  # the line of an empty row
    if fmt == "csv":
        lead, skip = alone[:-1] + ",", 0
        width = len(rows[0]) if rows else 0
        if width and {width} == {*map(len, rows)} and {float}.issuperset(
            map(type, itertools.chain.from_iterable(rows))
        ):
            template = lead.replace("%", "%%") + _float_row(width)
            return [template % tuple(row) for row in rows]
    else:
        lead, skip = alone[: -len(_JSON_CLOSE)] + _JSON_SEP, len(_JSON_OPEN)
    return [lead + render_row(row, fmt)[skip:] if row else alone for row in rows]


def _rendered(rows, fmt: str):
    """The rows as text: a row that is already a ``str`` is written as it is."""
    return (row if isinstance(row, str) else render_row(row, fmt) for row in rows)


def _csv_parts(table: SweepTable) -> list[str]:
    meta = dict(table.metadata)
    timestamp = meta.pop("timestamp", None)
    parts = []
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        parts.append(f"# {key}: {value}\n")
    if timestamp is not None:
        parts.append(f"# timestamp: {timestamp}\n")
    parts.append(",".join(table.column_labels()) + "\n")
    parts.extend(_rendered(table.rows, "csv"))
    return parts


# "rows" sorts last, so a document rendered with no rows ends in its empty list.
_EMPTY_ROWS_TAIL = "[]\n}"


def _json_parts(table: SweepTable) -> list[str]:
    payload = {
        "metadata": table.metadata,
        "columns": [{"name": name, "unit": unit} for name, unit in table.columns],
        "rows": [],
    }
    text = json.dumps(payload, sort_keys=True, indent=1)
    if not table.rows:
        return [text + "\n"]
    parts = [text[: -len(_EMPTY_ROWS_TAIL)] + "[\n"]
    for row in _rendered(table.rows, "json"):
        parts += (row, ",\n")
    parts[-1] = "\n ]\n}\n"  # the last row's separator closes the document
    return parts


_PARTS = {"csv": _csv_parts, "json": _json_parts}


def render_csv(table: SweepTable) -> str:
    return "".join(_csv_parts(table))


def render_json(table: SweepTable) -> str:
    return "".join(_json_parts(table))


def write_table(table: SweepTable, path: str | None, fmt: str) -> str:
    """Serialize and (when ``path`` is given) write the table.

    Returns the rendered text either way so callers can print to stdout.
    The file is written part by part, so the whole document is held once,
    as the returned string.
    """
    if fmt not in _PARTS:
        raise ConfigError(f"unknown output format {fmt!r}")
    parts = _PARTS[fmt](table)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
    return "".join(parts)


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
