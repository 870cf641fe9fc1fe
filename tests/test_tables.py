"""Serialization of sweep tables: exact round trips and diffable output."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spaserkit import tables
from spaserkit.errors import ConfigError
from spaserkit.tables import (
    SweepTable,
    _format_cell,
    build_metadata,
    config_hash,
    read_csv,
    read_json,
    render_csv,
    render_json,
    write_table,
)


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
        text = render_csv(sample_table())
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "pump_g (rad/s),N_n (1),stable (1)"

    def test_floats_use_17_significant_digits(self):
        text = render_csv(sample_table())
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
        lines = [l for l in render_csv(sample_table()).splitlines()
                 if not l.startswith("#")]
        assert lines[1].endswith(",1")
        assert lines[2].endswith(",0")

    def test_metadata_keys_sorted_with_timestamp_last(self):
        meta_lines = [l for l in render_csv(sample_table()).splitlines()
                      if l.startswith("#")]
        keys = [l.split(":", 1)[0].removeprefix("# ") for l in meta_lines]
        assert keys[-1] == "timestamp"
        assert keys[:-1] == sorted(keys[:-1])

    def test_byte_stable_modulo_timestamp(self):
        a = render_csv(sample_table(timestamp="2026-01-01T00:00:00+00:00"))
        b = render_csv(sample_table(timestamp="2026-12-31T23:59:59+00:00"))
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("# timestamp")]
        assert strip(a) == strip(b)
        assert a != b


def cell_by_cell(rows) -> str:
    return "".join(",".join(_format_cell(cell) for cell in row) + "\n" for row in rows)


def body(text: str) -> str:
    """The rendered rows: everything after the header line."""
    return text.split("\n", 1)[1]


FOUR_FLOATS = (("a", "1"), ("b", "1"), ("c", "1"), ("d", "1"))


class TestWholeRowFormatting:
    """Rows of plain floats are formatted in one operation; they must read
    exactly as the per-cell formatter writes them."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.floats()] * 4), max_size=8))
    @example(rows=[(0.0, -0.0, math.inf, -math.inf)])
    @example(rows=[(math.nan, -math.nan, 5e-324, -2.2250738585072009e-308)])
    @example(rows=[(1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 1.0 / 3.0)])
    def test_float_rows_match_the_cell_formatter(self, rows):
        table = SweepTable(columns=FOUR_FLOATS, rows=tuple(rows))
        assert body(render_csv(table)) == cell_by_cell(rows)

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
        text = render_csv(SweepTable(columns=FOUR_FLOATS, rows=rows))
        assert body(text) == expected
        # every cell of the first six rows, none of the all-float last row
        assert len(formatted) == 4 * 5 + 2
        assert formatted[-2:] == [0.5, 0.25]


class TestJson:
    def test_nan_becomes_null(self):
        payload = json.loads(render_json(sample_table()))
        assert payload["rows"][1][1] is None

    def test_booleans_become_integers(self):
        payload = json.loads(render_json(sample_table()))
        assert payload["rows"][0][2] == 1
        assert payload["rows"][1][2] == 0

    def test_columns_carry_names_and_units(self):
        payload = json.loads(render_json(sample_table()))
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
        assert text == render_csv(sample_table())


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
    assert t.column("pump_g") == [4.4e12, 6e12, 8e12]
    with pytest.raises(KeyError):
        t.column_index("missing")
