"""Figure-ready sweep tables: metadata, CSV and JSON serialization.

Numbers are written with 17 significant digits so binary64 values
round-trip exactly; booleans are written as 0/1.  CSV files carry the
metadata as leading ``#`` comment lines (the timestamp on its own line
so consumers can diff files modulo that line); JSON files are a single
object ``{"metadata": ..., "columns": ..., "rows": ...}``.

Rows are rendered in one place, :func:`render_rows`: the lines of a grid
point's rows, which share their axis cells, exactly as the whole
document carries them, the shared text made once.  :func:`render_row`
is its one-row case.  Each output format is one entry of ``_FORMATS``:
its document, its cell rule and the text around a row's cells.  A table
row may be a tuple of cells or a line already rendered: the CLI renders
each grid point's rows in the process that computed them and hands the
lines to :func:`write_table`, the one renderer of a whole document,
which writes them as they are.
"""

from __future__ import annotations

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
    "render_row",
    "render_rows",
    "read_csv",
    "read_json",
]


@dataclass(frozen=True)
class SweepTable:
    """Column-major description plus rows.

    ``columns`` are ``(name, unit)`` pairs; the unit string "1" marks a
    dimensionless column.  A row is a tuple of cells or, as the CLI
    builds them, the ``str`` that :func:`render_rows` made of one.
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
        return "%.17g" % value
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


def render_row(cells, fmt: str) -> str:
    """One data row, exactly as the whole document carries it:
    ``render_rows((), (cells,), fmt)[0]``."""
    return render_rows((), (cells,), fmt)[0]


def render_rows(head: tuple, rows, fmt: str) -> list[str]:
    """The lines of ``head + tuple(row)`` for each row of a sequence of rows
    that share their first cells ``head`` (a grid point's axis values),
    with the text of ``head`` made once.

    A line is the format's opening text, the cells joined by its
    separator, then its closing text; a line with no cells is the
    format's empty row.  A CSV line ends in its newline; a JSON line is
    the row's list at indent 2 of the document, without the ``",\n"``
    that separates it from the next.  When the rows all have one nonzero
    length and only ``float`` cells, a CSV line is one ``%`` on a
    template that already holds ``head``: ``"%.17g" % x`` is
    ``_format_cell(x)`` for any float.
    """
    _, rule, float_spec, opening, sep, closing, empty = _format(fmt)
    cell = globals()[rule]  # looked up here, so a patched rule is used
    head_cells = [cell(value) for value in head]
    lead = opening + "".join(text + sep for text in head_cells)
    width = len(rows[0]) if rows else 0
    if float_spec and width and {width} == {*map(len, rows)} and {float}.issuperset(
        map(type, itertools.chain.from_iterable(rows))
    ):
        template = lead.replace("%", "%%") + sep.join([float_spec] * width) + closing
        return [template % tuple(row) for row in rows]
    alone = opening + sep.join(head_cells) + closing if head else empty
    return [lead + sep.join(map(cell, row)) + closing if row else alone for row in rows]


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


# per format: its document, part by part; the name of its cell rule, looked
# up at each call; a "%" spec that writes any float as that rule does, or
# None; the text before a row's first cell, between two cells and after its
# last; and the line of a row with no cells
_FORMATS = {
    "csv": (_csv_parts, "_format_cell", "%.17g", "", ",", "\n", "\n"),
    "json": (_json_parts, "_json_cell", None, "  [\n   ", ",\n   ", "\n  ]", "  []"),
}


def _format(fmt: str) -> tuple:
    if fmt not in _FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    return _FORMATS[fmt]


def write_table(table: SweepTable, path: str | None, fmt: str) -> str:
    """Serialize and (when ``path`` is given) write the table.

    Returns the rendered text either way so callers can print to stdout.
    The file is written part by part, so the whole document is held once,
    as the returned string.
    """
    parts = _format(fmt)[0](table)
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
    """Parse a CSV table written by :func:`write_table` (numbers as floats)."""
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
    """Parse a JSON table written by :func:`write_table`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    columns = tuple((c["name"], c["unit"]) for c in payload["columns"])
    rows = tuple(
        tuple(math.nan if cell is None else cell for cell in row)
        for row in payload["rows"]
    )
    return SweepTable(columns=columns, rows=rows, metadata=payload["metadata"])
