"""Run-configuration parsing: units, schema validation, presets, sweeps."""

import json
import os
from dataclasses import fields

import pytest

from helpers import OMEGA_21
from spaserkit.config import (
    PRESETS,
    CalibrateOptions,
    RunOptions,
    ThresholdOptions,
    TrajectoryOptions,
    build_config,
    load_config_dict,
    merge_dicts,
    parse_config,
    resolved_config_dict,
)
from spaserkit.errors import ConfigError
from spaserkit.params import default_params
from spaserkit.tables import config_hash


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestModelSection:
    def test_minimal_config_reproduces_the_defaults(self):
        cfg = build_config({"model": {}})
        assert cfg.model == default_params()
        assert cfg.frame_auto is True
        assert cfg.axes == ()

    def test_empty_config_is_valid(self):
        assert build_config({}).model == default_params()

    def test_ev_quantities_are_converted(self):
        cfg = build_config(
            {"model": {"plasmon": {"omega_n": {"value": 2.5, "unit": "eV"}}}}
        )
        assert cfg.model.plasmon.omega_n == 3798168619990318.5

    def test_bare_numbers_are_rad_per_second(self):
        cfg = build_config({"model": {"gain": {"pump_g": 6e12}}})
        assert cfg.model.gain.pump_g == 6e12

    def test_unknown_key_reported_with_dotted_path(self):
        with pytest.raises(ConfigError, match="model.gain.pump"):
            build_config({"model": {"gain": {"pump": 1.0}}})

    def test_invalid_value_reported_with_dotted_path(self):
        with pytest.raises(ConfigError, match="plasmon.gamma_n"):
            build_config({"model": {"plasmon": {"gamma_n": -1.0}}})

    def test_frame_auto_versus_explicit(self):
        auto = build_config({"model": {"frame": {"nu_ref": "auto"}}})
        assert auto.frame_auto is True
        fixed = build_config({"model": {"frame": {"nu_ref": OMEGA_21}}})
        assert fixed.frame_auto is False
        assert fixed.model.frame.nu_ref == OMEGA_21

    def test_unit_object_requires_both_fields(self):
        with pytest.raises(ConfigError, match="value"):
            build_config({"model": {"plasmon": {"omega_n": {"unit": "eV"}}}})

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError, match="unit"):
            build_config(
                {"model": {"plasmon": {"omega_n": {"value": 1.0, "unit": "Hz"}}}}
            )


class TestFiles:
    def test_missing_file_error_is_distinct(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_dict(str(tmp_path / "nope.json"))

    def test_malformed_json_error_is_distinct(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_config_dict(str(path))

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1,2]")
        with pytest.raises(ConfigError, match="object"):
            load_config_dict(str(path))

    def test_parse_config_round_trip(self, tmp_path):
        path = write_config(tmp_path, {"model": {"gain": {"pump_g": 5e12}}})
        cfg = parse_config(path)
        assert cfg.model.gain.pump_g == 5e12


class TestSweepAxes:
    def test_explicit_values_kept_verbatim(self):
        cfg = build_config(
            {"sweep": [{"path": "gain.pump_g", "values": [1e12, 2e12, 3e12]}]}
        )
        assert cfg.axes[0].path == "gain.pump_g"
        assert cfg.axes[0].values == (1e12, 2e12, 3e12)

    def test_linear_grid_hits_both_endpoints_exactly(self):
        cfg = build_config(
            {"sweep": [{"path": "gain.pump_g", "min": 1e12, "max": 2e13, "n": 7}]}
        )
        vals = cfg.axes[0].values
        assert len(vals) == 7
        assert vals[0] == 1e12 and vals[-1] == 2e13

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter path"):
            build_config({"sweep": [{"path": "gain.bogus", "values": [1.0]}]})

    def test_more_than_three_axes_rejected(self):
        axes = [
            {"path": p, "values": [1e12]}
            for p in ("gain.pump_g", "drive.omega_a_rabi", "gain.gamma_ph",
                      "plasmon.n_p")
        ]
        with pytest.raises(ConfigError, match="at most 3"):
            build_config({"sweep": axes})

    def test_duplicate_axis_path_rejected(self):
        axes = [
            {"path": "gain.pump_g", "values": [1e12]},
            {"path": "gain.pump_g", "values": [2e12]},
        ]
        with pytest.raises(ConfigError, match="duplicate"):
            build_config({"sweep": axes})

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ConfigError, match="max must exceed min"):
            build_config(
                {"sweep": [{"path": "gain.pump_g", "min": 2.0, "max": 1.0, "n": 3}]}
            )


class TestOptionsAndBrackets:
    def test_trajectory_time_units(self):
        fs = build_config({"trajectory": {"t_end": {"value": 60.0, "unit": "fs"}}})
        assert fs.trajectory.t_end == 60.0 * 1e-15
        ps = build_config({"trajectory": {"t_end": {"value": 4.0, "unit": "ps"}}})
        assert ps.trajectory.t_end == 4.0 * 1e-12

    def test_workers_resolution(self):
        assert build_config({"options": {"workers": 3}}).resolved_workers() == 3
        auto = build_config({})
        assert auto.options.workers is None
        assert auto.resolved_workers() >= 1

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        auto = build_config({})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert auto.resolved_workers() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert auto.resolved_workers() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert auto.resolved_workers() == 1

    def test_threshold_bracket(self):
        cfg = build_config({"threshold": {"bracket": [1e10, 1e14]}})
        assert cfg.threshold.bracket == (1e10, 1e14)
        with pytest.raises(ConfigError, match="low < high"):
            build_config({"threshold": {"bracket": [1e14, 1e10]}})

    def test_calibrate_section(self):
        cfg = build_config(
            {"calibrate": {"bracket": [1e12, 1e13], "target_ratio": 1.5,
                           "omega_a_on": 2e13}}
        )
        assert cfg.calibrate.bracket == (1e12, 1e13)
        assert cfg.calibrate.target_ratio == 1.5
        assert cfg.calibrate.omega_a_on == 2e13

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tol"):
            build_config({"options": {"tol": 0.0}})


#: (section, key, value, the full message it gets) for each of the nine
#: option fields, including the number checks every numeric field shares
OPTION_MESSAGES = [
    ("trajectory", "t_end", 0.0, "'trajectory.t_end' must be positive"),
    ("trajectory", "t_end", {"value": -1.0, "unit": "fs"},
     "'trajectory.t_end' must be positive"),
    ("trajectory", "t_end", "1e-12", "'trajectory.t_end' must be a number, got '1e-12'"),
    ("trajectory", "t_end", float("inf"), "'trajectory.t_end' must be finite, got inf"),
    ("trajectory", "t_end", {"value": 1.0, "unit": "ms"},
     "'trajectory.t_end.unit' must be one of ['fs', 'ps', 's'], got 'ms'"),
    ("trajectory", "store_every", 0, "'trajectory.store_every' must be an integer >= 1"),
    ("trajectory", "store_every", 2.0, "'trajectory.store_every' must be an integer >= 1"),
    ("trajectory", "store_every", True, "'trajectory.store_every' must be an integer >= 1"),
    ("options", "tol", -1e-6, "'options.tol' must be positive"),
    ("options", "tol", None, "'options.tol' must be a number, got None"),
    ("options", "tol", float("nan"), "'options.tol' must be finite, got nan"),
    ("options", "seed_amplitude", 0, "'options.seed_amplitude' must be positive"),
    ("options", "seed_amplitude", True,
     "'options.seed_amplitude' must be a number, got True"),
    ("options", "seed_amplitude", float("-inf"),
     "'options.seed_amplitude' must be finite, got -inf"),
    ("options", "workers", 0, "'options.workers' must be an integer >= 1 or null"),
    ("options", "workers", 2.0, "'options.workers' must be an integer >= 1 or null"),
    ("options", "workers", False, "'options.workers' must be an integer >= 1 or null"),
    ("threshold", "bracket", [1e10], "'threshold.bracket' must be a [low, high] pair"),
    ("threshold", "bracket", None, "'threshold.bracket' must be a [low, high] pair"),
    ("threshold", "bracket", [0.0, 1e10], "'threshold.bracket' needs 0 < low < high"),
    ("threshold", "bracket", ["1", 2.0],
     "'threshold.bracket[0]' must be a number, got '1'"),
    ("threshold", "bracket", [1.0, float("nan")],
     "'threshold.bracket[1]' must be finite, got nan"),
    ("calibrate", "bracket", [1e12, 1e13, 1e14],
     "'calibrate.bracket' must be a [low, high] pair"),
    ("calibrate", "bracket", [1e13, 1e12], "'calibrate.bracket' needs 0 < low < high"),
    ("calibrate", "bracket", [1e12, True],
     "'calibrate.bracket[1]' must be a number, got True"),
    ("calibrate", "target_ratio", 0.0, "'calibrate.target_ratio' must be positive"),
    ("calibrate", "target_ratio", [2.0],
     "'calibrate.target_ratio' must be a number, got [2.0]"),
    ("calibrate", "target_ratio", float("nan"),
     "'calibrate.target_ratio' must be finite, got nan"),
    ("calibrate", "omega_a_on", -1.0, "'calibrate.omega_a_on' must be nonnegative"),
    ("calibrate", "omega_a_on", {"value": -0.01, "unit": "eV"},
     "'calibrate.omega_a_on' must be nonnegative"),
    ("calibrate", "omega_a_on", "16e12",
     "'calibrate.omega_a_on' must be a number, got '16e12'"),
    ("calibrate", "omega_a_on", float("inf"),
     "'calibrate.omega_a_on' must be finite, got inf"),
    ("calibrate", "omega_a_on", {"value": 1.0, "unit": "Hz"},
     "'calibrate.omega_a_on.unit' must be 'rad/s' or 'eV', got 'Hz'"),
]


class TestOptionMessages:
    """Every option field's check, pinned message by message."""

    def test_every_field_is_covered(self):
        covered = {(section, key) for section, key, _, _ in OPTION_MESSAGES}
        assert covered == {
            (section, f.name)
            for section, cls in (
                ("trajectory", TrajectoryOptions), ("options", RunOptions),
                ("threshold", ThresholdOptions), ("calibrate", CalibrateOptions),
            )
            for f in fields(cls)
        }

    @pytest.mark.parametrize(("section", "key", "value", "message"), OPTION_MESSAGES)
    def test_message(self, section, key, value, message):
        with pytest.raises(ConfigError) as err:
            build_config({section: {key: value}})
        assert str(err.value) == message

    def test_boundary_values_pass(self):
        cfg = build_config({
            "trajectory": {"t_end": 1e-300, "store_every": 1},
            "options": {"tol": 5e-324, "seed_amplitude": 1, "workers": None},
            "threshold": {"bracket": [5e-324, 1e-300]},
            "calibrate": {"target_ratio": 1e-300, "omega_a_on": 0},
        })
        assert cfg.trajectory.store_every == 1 and cfg.options.workers is None
        assert cfg.options.seed_amplitude == 1.0
        assert isinstance(cfg.options.seed_amplitude, float)
        assert cfg.threshold.bracket == (5e-324, 1e-300)
        assert cfg.calibrate.omega_a_on == 0.0


class TestResolvedConfig:
    """The embedded config and its hash, pinned so that a schema refactor
    cannot silently change what every existing table records."""

    HASHES = {
        None: "c7180d7f733443409d9336d54c9f42f0a9c3da5f8d2939ea36c8ab9d4611eeda",
        "fig2": "3f00b998f0be0890640499c5d56087a353ffaf98e6537dd61045df56719185d8",
        "fig3": "781e0cef9af07479aeb304cbb8006ec7c48ac93c728bb14fd64a47e656c8b68d",
        "fig4a": "1e90a393625590d6eb9113f83ffc135bdc1432012f90a9336cb8fbf9f03837bb",
        "fig4b": "6777409935380c6d704bba99edf877e2b6e5522e4b167f42e3d1a174d821d3fb",
    }

    @pytest.mark.parametrize("preset", list(HASHES))
    def test_config_hash_is_pinned(self, preset):
        data = {} if preset is None else PRESETS[preset]
        assert config_hash(resolved_config_dict(build_config(data))) == self.HASHES[preset]

    def test_every_preset_is_pinned(self):
        assert set(PRESETS) == set(self.HASHES) - {None}

    def test_workers_excluded_and_frame_auto_folded_in(self):
        resolved = resolved_config_dict(
            build_config({"options": {"workers": 3, "tol": 1e-7}})
        )
        assert resolved["options"] == {"tol": 1e-7, "seed_amplitude": 1e-3}
        assert resolved["model"]["frame"] == {"nu_ref": "auto"}
        assert set(resolved) == {
            "model", "sweep", "trajectory", "options", "threshold", "calibrate",
        }
        fixed = resolved_config_dict(
            build_config({"model": {"frame": {"nu_ref": OMEGA_21}}})
        )
        assert fixed["model"]["frame"] == {"nu_ref": OMEGA_21}


class TestPresets:
    def test_all_presets_build(self):
        for name, data in PRESETS.items():
            cfg = build_config(data)
            assert cfg.axes, f"preset {name!r} defines no sweep"

    def test_file_overrides_preset(self, tmp_path):
        """A config file merges on top of the preset it names."""
        preset_name = next(iter(PRESETS))
        path = write_config(tmp_path, {"model": {"gain": {"pump_g": 9.9e12}}})
        merged = parse_config(path, preset=preset_name)
        assert merged.model.gain.pump_g == 9.9e12
        base = build_config(PRESETS[preset_name])
        assert merged.axes == base.axes

    def test_unknown_preset_rejected(self, tmp_path):
        path = write_config(tmp_path, {})
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config(path, preset="nope")


def test_merge_dicts_is_deep_and_override_wins():
    base = {"a": {"x": 1, "y": 2}, "b": 3}
    override = {"a": {"y": 20}, "c": 4}
    merged = merge_dicts(base, override)
    assert merged == {"a": {"x": 1, "y": 20}, "b": 3, "c": 4}
    assert base == {"a": {"x": 1, "y": 2}, "b": 3}
