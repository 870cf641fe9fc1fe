"""Serialization of sweep tables: exact round trips and diffable output."""

import hashlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import strip_timestamp
from spaserkit import cli, tables
from spaserkit.errors import ConfigError
from spaserkit.tables import (
    SweepTable,
    _format_cell,
    build_metadata,
    config_hash,
    read_csv,
    read_json,
    render_row,
    render_rows,
    write_table,
)


# -- the oracle: the whole-table renderers as they were before rows were
# rendered one at a time (by the pool workers, in the CLI) --------------------


def seed_render_csv(table: SweepTable) -> str:
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
    ncols = len(table.columns)
    float_row = ",".join(["%.17g"] * ncols) + "\n"
    for row in table.rows:
        if len(row) == ncols and {float}.issuperset(map(type, row)):
            out.write(float_row % tuple(row))
        else:
            out.write(",".join(_format_cell(cell) for cell in row) + "\n")
    return out.getvalue()


def _seed_jsonable_cell(value):
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def seed_render_json(table: SweepTable) -> str:
    payload = {
        "metadata": table.metadata,
        "columns": [{"name": name, "unit": unit} for name, unit in table.columns],
        "rows": [[_seed_jsonable_cell(cell) for cell in row] for row in table.rows],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


SEED_RENDER = {"csv": seed_render_csv, "json": seed_render_json}


def sample_table(timestamp="2026-01-02T03:04:05+00:00"):
    return SweepTable(
        columns=(("pump_g", "rad/s"), ("N_n", "1"), ("stable", "1")),
        rows=(
            (4.4e12, 1.0 / 3.0, True),
            (6e12, math.nan, False),
            (8e12, 47.30485859191297, True),
        ),
        metadata={
            "command": "steady-sweep",
            "config": {"model": {"gain": {"pump_g": 4.4e12}}},
            "config_hash": "abc",
            "generator": "spaserkit test",
            "timestamp": timestamp,
        },
    )


class TestCsv:
    def test_column_labels_carry_units(self):
        text = write_table(sample_table(), None, "csv")
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "pump_g (rad/s),N_n (1),stable (1)"

    def test_floats_use_17_significant_digits(self):
        text = write_table(sample_table(), None, "csv")
        assert "0.33333333333333331" in text
        assert "47.304858591912968" in text

    def test_float_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(sample_table(), str(path), "csv")
        back = read_csv(str(path))
        assert back.rows[0][1] == 1.0 / 3.0
        assert back.rows[2][1] == 47.30485859191297
        assert math.isnan(back.rows[1][1])

    def test_booleans_written_as_integers(self):
        lines = [l for l in write_table(sample_table(), None, "csv").splitlines()
                 if not l.startswith("#")]
        assert lines[1].endswith(",1")
        assert lines[2].endswith(",0")

    def test_metadata_keys_sorted_with_timestamp_last(self):
        meta_lines = [l for l in write_table(sample_table(), None, "csv").splitlines()
                      if l.startswith("#")]
        keys = [l.split(":", 1)[0].removeprefix("# ") for l in meta_lines]
        assert keys[-1] == "timestamp"
        assert keys[:-1] == sorted(keys[:-1])

    def test_byte_stable_modulo_timestamp(self):
        a = write_table(sample_table(timestamp="2026-01-01T00:00:00+00:00"), None, "csv")
        b = write_table(sample_table(timestamp="2026-12-31T23:59:59+00:00"), None, "csv")
        assert strip_timestamp(a) == strip_timestamp(b)
        assert a != b


def cell_by_cell(rows) -> str:
    return "".join(",".join(_format_cell(cell) for cell in row) + "\n" for row in rows)


def body(text: str) -> str:
    """The rendered rows: everything after the header line."""
    return text.split("\n", 1)[1]


FOUR_FLOATS = (("a", "1"), ("b", "1"), ("c", "1"), ("d", "1"))


class TestCellFormatting:
    """A float cell is ``format(x, ".17g")``, which writes any NaN as
    ``nan``; the oracles above call ``_format_cell`` itself, so this checks
    it against ``format``."""

    @settings(max_examples=300, deadline=None)
    @given(value=st.floats())
    @example(value=math.nan)
    @example(value=-math.nan)
    @example(value=math.inf)
    @example(value=-math.inf)
    @example(value=0.0)
    @example(value=-0.0)
    @example(value=5e-324)
    @example(value=-5e-324)
    def test_float_cell_is_format_17g(self, value):
        assert _format_cell(value) == format(value, ".17g")


class TestWholeRowFormatting:
    """Rows of plain floats are formatted in one operation; they must read
    exactly as the per-cell formatter writes them."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.floats()] * 4), max_size=8))
    @example(rows=[(0.0, -0.0, math.inf, -math.inf)])
    @example(rows=[(math.nan, -math.nan, 5e-324, -2.2250738585072009e-308)])
    @example(rows=[(1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 1.0 / 3.0)])
    def test_float_rows_match_the_cell_formatter(self, rows):
        assert "".join(render_row(row, "csv") for row in rows) == cell_by_cell(rows)

    def test_mixed_rows_take_the_cell_formatter(self, monkeypatch):
        rows = (
            (True, 0.5, 0.25, 0.125),
            (1.5, 2, 0.25, math.nan),
            ("x", 0.5, 0.25, 0.125),
            (0.5, np.float64(0.1), 0.25, math.nan),
            (math.nan, 0.5, 0.25, False),
            (0.5, 0.25),
            (0.5, 0.25, 0.125, 1e300),
        )
        expected = cell_by_cell(rows)
        formatted = []

        def recording(value):
            formatted.append(value)
            return _format_cell(value)

        monkeypatch.setattr(tables, "_format_cell", recording)
        text = write_table(SweepTable(columns=FOUR_FLOATS, rows=rows), None, "csv")
        assert body(text) == expected
        # every cell of the first five rows, none of the two all-float rows
        # (a row is rendered without the table, so a short one is no exception)
        assert len(formatted) == 4 * 5


CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.sampled_from(["x", 'say "hi"', "tab\there"]),
)


class TestRowByRowRendering:
    """The renderers format each row with ``render_row``; a row that is
    already a line is written as it is.  Either way the document is the
    oracle's, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(CELLS, max_size=5).map(tuple), max_size=6))
    @example(rows=[])
    @example(rows=[(), (math.nan, True, 0.5, -1)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_documents_match_the_oracle(self, fmt, rows):
        table = replace(sample_table(), columns=FOUR_FLOATS, rows=tuple(rows))
        expected = SEED_RENDER[fmt](table)
        assert write_table(table, None, fmt) == expected
        lines = tuple(render_row(row, fmt) for row in rows)
        assert write_table(replace(table, rows=lines), None, fmt) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_holds_the_returned_text(self, tmp_path, fmt):
        path = tmp_path / f"t.{fmt}"
        text = write_table(sample_table(), str(path), fmt)
        assert path.read_bytes() == text.encode("utf-8")
        assert text == SEED_RENDER[fmt](sample_table())

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            render_row((0.5,), "parquet")


class TestOneRowRenderer:
    """``render_row`` is the one-row case of ``render_rows``, and an empty
    row after a head is the head's own line."""

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(CELLS, max_size=5).map(tuple))
    @example(cells=())
    @example(cells=(0.5, math.nan, -0.0))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_render_row_is_the_one_row_case(self, fmt, cells):
        assert render_row(cells, fmt) == render_rows((), [cells], fmt)[0]
        assert render_rows(cells, [()], fmt) == [render_row(cells, fmt)]


# rows of mixed cells, or of plain floats of one width (the CSV template's case)
POINT_ROWS = st.one_of(
    st.lists(st.lists(CELLS, max_size=5), max_size=6),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.floats(), min_size=n, max_size=n), max_size=6)
    ),
)


class TestPointRows:
    """``render_rows`` writes the shared axis cells of a grid point's rows
    once; each line must be ``render_row`` of the whole row."""

    @settings(max_examples=300, deadline=None)
    @given(head=st.lists(CELLS, max_size=3).map(tuple), rows=POINT_ROWS)
    @example(head=(), rows=[])
    @example(head=(0.5,), rows=[])
    @example(head=(), rows=[[], [0.5, True]])
    @example(head=(4e12,), rows=[[], [0.25, 0.5]])
    @example(head=(4e12, math.nan), rows=[[0.25, math.inf], [-0.0, 5e-324]])
    @example(head=("100%",), rows=[[0.5, math.nan], [1.5, 2.5]])
    @example(head=(True, 2, np.float64(0.1)), rows=[[0.5], [1.5]])
    @example(head=(0.5,), rows=[[math.nan] * 3, [0.1, 0.2]])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_lines_are_render_row_of_the_whole_row(self, fmt, head, rows):
        assert render_rows(head, rows, fmt) == [
            render_row(head + tuple(row), fmt) for row in rows
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            render_rows((0.5,), [(0.5,)], "parquet")


class TestJson:
    def test_nan_becomes_null(self):
        payload = json.loads(write_table(sample_table(), None, "json"))
        assert payload["rows"][1][1] is None

    def test_booleans_become_integers(self):
        payload = json.loads(write_table(sample_table(), None, "json"))
        assert payload["rows"][0][2] == 1
        assert payload["rows"][1][2] == 0

    def test_columns_carry_names_and_units(self):
        payload = json.loads(write_table(sample_table(), None, "json"))
        assert payload["columns"][0] == {"name": "pump_g", "unit": "rad/s"}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        write_table(sample_table(), str(path), "json")
        back = read_json(str(path))
        assert back.columns == sample_table().columns
        assert back.rows[2][1] == 47.30485859191297
        assert math.isnan(back.rows[1][1])


class TestCrossFormat:
    def test_csv_and_json_agree_row_for_row(self, tmp_path):
        t = sample_table()
        write_table(t, str(tmp_path / "t.csv"), "csv")
        write_table(t, str(tmp_path / "t.json"), "json")
        from_csv = read_csv(str(tmp_path / "t.csv"))
        from_json = read_json(str(tmp_path / "t.json"))
        assert from_csv.columns == from_json.columns
        for r_csv, r_json in zip(from_csv.rows, from_json.rows):
            for a, b in zip(r_csv, r_json):
                if isinstance(a, float) and math.isnan(a):
                    assert isinstance(b, float) and math.isnan(b)
                else:
                    assert float(a) == float(b)

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            write_table(sample_table(), None, "parquet")

    def test_write_without_path_only_renders(self):
        text = write_table(sample_table(), None, "csv")
        assert text == seed_render_csv(sample_table())


class TestMetadata:
    def test_config_hash_is_sha256_of_canonical_json(self):
        resolved = {"b": 1, "a": {"z": [1, 2]}}
        canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
        assert config_hash(resolved) == hashlib.sha256(
            canonical.encode()
        ).hexdigest()

    def test_hash_ignores_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_build_metadata_fields(self):
        meta = build_metadata("threshold", {"model": {}})
        assert meta["command"] == "threshold"
        assert meta["config"] == {"model": {}}
        assert meta["config_hash"] == config_hash({"model": {}})
        assert meta["generator"].startswith("spaserkit ")
        # ISO-8601 UTC timestamp
        assert "T" in meta["timestamp"] and meta["timestamp"].endswith("+00:00")


def test_column_lookup_helpers():
    t = sample_table()
    assert t.column_index("N_n") == 1
    assert [row[t.column_index("pump_g")] for row in t.rows] == [4.4e12, 6e12, 8e12]
    with pytest.raises(KeyError):
        t.column_index("missing")


# grid runs whose tables hold failure rows: NaN cells and, for steady-sweep,
# a ``converged`` of False; the failing trajectory point leaves no rows
ORACLE_RUNS = {
    "trajectory": ({
        "model": {"gain": {"gamma21": 0.0, "gamma_ph": 0.0}, "drive": {"omega_a_rabi": 0.0}},
        "sweep": [{"path": "gain.pump_g", "values": [0.0, 8e12, 4e12]}],
        "trajectory": {"t_end": 1e-14, "store_every": 10},
    }, 2),
    "steady-sweep": ({
        "sweep": [{"path": "plasmon.n_p", "values": [0.5, 6e4]},
                  {"path": "gain.pump_g", "values": [4.4e12, 8e12]}],
    }, 2),
    "threshold": ({"sweep": [{"path": "plasmon.n_p", "values": [0.5, 6e4]}]}, 2),
    "stability": ({
        "sweep": [{"path": "plasmon.n_p", "values": [0.5, 6e4]},
                  {"path": "gain.pump_g", "values": [-1.0, 8e12]}],
    }, 2),
}


class TestCliTablesMatchTheOracle:
    """Each grid command renders its rows in the workers that computed
    them.  Its output, to a file or to stdout, at one worker or two, is
    what the oracle makes of the same rows, timestamp aside."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(ORACLE_RUNS))
    def test_output_is_the_oracle_of_the_same_rows(
        self, tmp_path, monkeypatch, capsys, command, fmt
    ):
        data, exit_code = ORACLE_RUNS[command]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        argv = [command, "--config", str(cfg), "--format", fmt]
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.{fmt}"
            assert cli.entry_point([*argv, "--workers", workers, "--out", str(out)]) == exit_code
            texts.append(out.read_text())
            assert cli.entry_point([*argv, "--workers", workers]) == exit_code
            texts.append(capsys.readouterr().out)

        # the same run with its cells left as they are, for the oracle
        tables_seen = []
        monkeypatch.setattr(
            cli, "render_rows", lambda head, rows, fmt: [head + tuple(r) for r in rows]
        )
        monkeypatch.setattr(
            cli, "write_table", lambda table, path, fmt: tables_seen.append(table) or ""
        )
        assert cli.entry_point([*argv, "--workers", "1"]) == exit_code
        (table,) = tables_seen
        cells = [cell for row in table.rows for cell in row]
        assert (command != "trajectory") == any(
            isinstance(c, float) and math.isnan(c) for c in cells
        )
        assert (command == "steady-sweep") == any(c is False for c in cells)
        expected = strip_timestamp(SEED_RENDER[fmt](table))
        assert [strip_timestamp(text) for text in texts] == [expected] * 4
