"""Run configuration: JSON schema, unit handling, presets, validation.

A config file is a JSON object with (all optional) sections:

``model``
    Parameter overrides, grouped as ``gain`` / ``plasmon`` / ``drive`` /
    ``frame``.  Frequencies and rates accept either a bare number
    (rad/s) or ``{"value": x, "unit": "eV"|"rad/s"}``.
    ``frame.nu_ref`` additionally accepts the string ``"auto"``
    (default), meaning: rotate each grid point at its own
    self-consistent spasing frequency.  A ``frame.nu_ref`` sweep axis
    fixes the frame at each point's value, as a number there does.
    ``trajectory`` and ``stability`` read the frame; the other commands
    print frame-independent numbers.
``sweep``
    Up to three axes, each ``{"path": "gain.pump_g", "min": a,
    "max": b, "n": k}`` (linear grid) or ``{"path": ..., "values":
    [...]}``.  Paths are dotted parameter names validated against the
    schema.
``trajectory``
    ``t_end`` (number in seconds or ``{"value", "unit": "s"|"fs"|"ps"}``)
    and ``store_every`` for time-domain runs.
``options``
    ``tol`` (integration tolerance: the steps run at relative tolerance
    ``min(max(tol/100, 1e-12), 1e-6)`` and absolute tolerance a
    hundredth of that, so every ``tol >= 1e-4`` gives the same run) and
    ``seed_amplitude`` (initial plasmon amplitude of a time-domain
    run), both read by ``trajectory`` only, which alone takes the
    ``--tol`` and ``--seed-amplitude`` flags; and ``workers``
    (``--workers`` on every command; ``calibrate`` ignores it).  A flag
    replaces the file's value before the one check, :func:`build_config`.
``threshold``
    ``bracket``: ``[g_lo, g_hi]`` pump bracket for threshold scans.
``calibrate``
    ``bracket`` (coupling bracket ``[w_lo, w_hi]``), ``target_ratio``
    and ``omega_a_on`` for the coupling calibration command.

Unknown keys anywhere are rejected with their dotted path.  The
sections after ``sweep`` are the frozen dataclasses below: their field
names are the keys, their defaults the only statement of the defaults,
and each field names the parser that reads and checks its value
(``_option``).  ``model`` values are converted to rad/s here and checked
by the rule on their parameter field (:mod:`spaserkit.params`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import groupby

from .errors import ConfigError
from .params import (
    ModelParams, _is_number, default_params, param_paths, param_unit, set_param,
)
from .units import ev_to_angular

__all__ = [
    "SweepAxis",
    "TrajectoryOptions",
    "RunOptions",
    "ThresholdOptions",
    "CalibrateOptions",
    "RunConfig",
    "parse_config",
    "build_config",
    "load_config_dict",
    "merge_dicts",
    "resolved_config_dict",
    "PRESETS",
]

_TIME_UNITS = {"s": 1.0, "fs": 1e-15, "ps": 1e-12}

#: model group -> its leaf names, read off the parameter paths
_MODEL_LEAVES = {
    group: tuple(path.partition(".")[2] for path in paths)
    for group, paths in groupby(param_paths(), key=lambda path: path.partition(".")[0])
}


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted parameter path and its grid values."""

    path: str
    values: tuple[float, ...]


# --- value parsers: each reads one config leaf at its dotted path ---------

def _number(node, path: str) -> float:
    if not _is_number(node):
        raise ConfigError(f"'{path}' must be a number, got {node!r}")
    value = float(node)
    if not math.isfinite(value):
        raise ConfigError(f"'{path}' must be finite, got {node!r}")
    return value


def _quantity(node, path: str, *, kind: str) -> float:
    """Convert a config leaf to internal units (rad/s or seconds)."""
    if isinstance(node, dict):
        _reject_unknown(node, ("value", "unit"), path)
        if "value" not in node or "unit" not in node:
            raise ConfigError(f"'{path}' needs both 'value' and 'unit'")
        value = _number(node["value"], f"{path}.value")
        unit = node["unit"]
        if kind == "time":
            if unit not in _TIME_UNITS:
                raise ConfigError(
                    f"'{path}.unit' must be one of {sorted(_TIME_UNITS)}, got {unit!r}"
                )
            return value * _TIME_UNITS[unit]
        if unit == "rad/s":
            return value
        if unit == "eV":
            return ev_to_angular(value)
        raise ConfigError(f"'{path}.unit' must be 'rad/s' or 'eV', got {unit!r}")
    return _number(node, path)


def _sign(parse, word: str):
    """``parse``, then require a value that is ``word``: "positive" (> 0)
    or "nonnegative" (>= 0)."""

    def parse_signed(node, path: str) -> float:
        value = parse(node, path)
        if value < 0.0 or (value == 0.0 and word == "positive"):
            raise ConfigError(f"'{path}' must be {word}")
        return value

    return parse_signed


def _count(node, path: str, *, nullable: bool = False) -> int | None:
    """An ``int`` >= 1 (never a ``bool``), or ``null`` where ``nullable``."""
    if nullable and node is None:
        return None
    if isinstance(node, bool) or not isinstance(node, int) or node < 1:
        rule = "an integer >= 1 or null" if nullable else "an integer >= 1"
        raise ConfigError(f"'{path}' must be {rule}")
    return node


def _parse_bracket(raw, path: str) -> tuple[float, float]:
    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError(f"'{path}' must be a [low, high] pair")
    lo = _number(raw[0], f"{path}[0]")
    hi = _number(raw[1], f"{path}[1]")
    if not 0.0 < lo < hi:
        raise ConfigError(f"'{path}' needs 0 < low < high")
    return (lo, hi)


def _option(default, parse):
    """An option field: its default, and the parser that reads and checks
    a config-file value for it."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class TrajectoryOptions:
    t_end: float = _option(6.0e-14, _sign(partial(_quantity, kind="time"), "positive"))
    store_every: int = _option(1, _count)


@dataclass(frozen=True)
class RunOptions:
    tol: float = _option(1e-6, _sign(_number, "positive"))
    seed_amplitude: float = _option(1e-3, _sign(_number, "positive"))
    workers: int | None = _option(None, partial(_count, nullable=True))


@dataclass(frozen=True)
class ThresholdOptions:
    bracket: tuple[float, float] | None = _option(None, _parse_bracket)


@dataclass(frozen=True)
class CalibrateOptions:
    bracket: tuple[float, float] = _option((1.0e12, 1.0e14), _parse_bracket)
    target_ratio: float = _option(2.0, _sign(_number, "positive"))
    omega_a_on: float = _option(
        16.0e12, _sign(partial(_quantity, kind="frequency"), "nonnegative")
    )


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description: model, sweep and one field per
    further config-file section."""

    model: ModelParams
    frame_auto: bool
    axes: tuple[SweepAxis, ...]
    trajectory: TrajectoryOptions
    options: RunOptions
    threshold: ThresholdOptions
    calibrate: CalibrateOptions

    def resolved_workers(self) -> int:
        """The number of processes that compute a grid's points, the calling
        one included: ``options.workers``, else the CPUs this process may
        run on (its affinity mask where the platform has one, else the
        host's count)."""
        if self.options.workers is not None:
            return self.options.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


#: The config-file sections after ``sweep``, each read by :func:`_section`.
_SECTIONS = {"trajectory": TrajectoryOptions, "options": RunOptions,
             "threshold": ThresholdOptions, "calibrate": CalibrateOptions}


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"'{path}' must be an object, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed, path: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"unknown config key '{where}'")


def _section(data: dict, name: str, cls):
    """The config-file section ``name`` as a ``cls``: each key present is a
    field of ``cls``, read by the parser on that field; an absent key
    takes the field's default."""
    node = _require_mapping(data.get(name, {}), name)
    _reject_unknown(node, [f.name for f in fields(cls)], name)
    return cls(**{
        f.name: f.metadata["parse"](node[f.name], f"{name}.{f.name}")
        for f in fields(cls)
        if f.name in node
    })


def load_config_dict(path: str) -> dict:
    """Read and JSON-decode a config file with distinct error messages."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return _require_mapping(data, "<config>")


def merge_dicts(base: dict, override: dict) -> dict:
    """Deep merge: override wins; nested objects merge key-by-key."""
    merged = dict(base)
    for key, value in override.items():
        if key in merged and isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = merge_dicts(merged[key], value)
        else:
            merged[key] = value
    return merged


def _apply_model(data: dict) -> tuple[ModelParams, bool]:
    params = default_params()
    frame_auto = True
    _reject_unknown(data, _MODEL_LEAVES, "model")
    for group, node in data.items():
        node = _require_mapping(node, f"model.{group}")
        _reject_unknown(node, _MODEL_LEAVES[group], f"model.{group}")
        for leaf, raw in node.items():
            dotted = f"{group}.{leaf}"
            if dotted == "frame.nu_ref":
                if raw == "auto":
                    frame_auto = True
                    continue
                frame_auto = False
                value = _quantity(raw, f"model.{dotted}", kind="frequency")
            elif param_unit(dotted) == "1":
                value = _number(raw, f"model.{dotted}")
            else:
                value = _quantity(raw, f"model.{dotted}", kind="frequency")
            try:
                params = set_param(params, dotted, value)
            except ConfigError as exc:
                raise ConfigError(f"model.{dotted}: {exc}") from exc
    return params, frame_auto


def _parse_axis(node, index: int) -> SweepAxis:
    path_label = f"sweep[{index}]"
    node = _require_mapping(node, path_label)
    if "path" not in node:
        raise ConfigError(f"'{path_label}' needs a 'path'")
    path = node["path"]
    if path not in param_paths():
        raise ConfigError(
            f"'{path_label}.path': unknown parameter path {path!r}"
        )
    if "values" in node:
        _reject_unknown(node, ("path", "values"), path_label)
        raw = node["values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"'{path_label}.values' must be a non-empty list")
        values = tuple(
            _number(v, f"{path_label}.values[{i}]") for i, v in enumerate(raw)
        )
    else:
        _reject_unknown(node, ("path", "min", "max", "n"), path_label)
        for key in ("min", "max", "n"):
            if key not in node:
                raise ConfigError(
                    f"'{path_label}' needs either 'values' or 'min'/'max'/'n'"
                )
        lo = _number(node["min"], f"{path_label}.min")
        hi = _number(node["max"], f"{path_label}.max")
        n = node["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise ConfigError(f"'{path_label}.n' must be an integer >= 2")
        if not hi > lo:
            raise ConfigError(f"'{path_label}': max must exceed min")
        step = (hi - lo) / (n - 1)
        values = tuple(lo + step * i for i in range(n - 1)) + (hi,)
    return SweepAxis(path=path, values=values)


def build_config(data: dict) -> RunConfig:
    """Validate a merged config dict into a RunConfig."""
    _reject_unknown(data, ("model", "sweep", *_SECTIONS), "")

    model_node = _require_mapping(data.get("model", {}), "model")
    model, frame_auto = _apply_model(model_node)

    raw_axes = data.get("sweep", [])
    if not isinstance(raw_axes, list):
        raise ConfigError("'sweep' must be a list of axes")
    if len(raw_axes) > 3:
        raise ConfigError(f"'sweep' supports at most 3 axes, got {len(raw_axes)}")
    axes = tuple(_parse_axis(node, i) for i, node in enumerate(raw_axes))
    seen = set()
    for axis in axes:
        if axis.path in seen:
            raise ConfigError(f"'sweep': duplicate axis path {axis.path!r}")
        seen.add(axis.path)
    if "frame.nu_ref" in seen:  # a swept frame is fixed at each point's value
        frame_auto = False

    return RunConfig(
        model=model,
        frame_auto=frame_auto,
        axes=axes,
        **{name: _section(data, name, cls) for name, cls in _SECTIONS.items()},
    )


def parse_config(
    path: str, preset: str | None = None, options: dict | None = None
) -> RunConfig:
    """Load, merge (preset under file, file under the command-line values
    ``options`` of the ``options`` section), validate."""
    data = load_config_dict(path)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        data = merge_dicts(PRESETS[preset], data)
    if options:
        file_options = _require_mapping(data.get("options", {}), "options")
        data = {**data, "options": {**file_options, **options}}
    return build_config(data)


def resolved_config_dict(config: RunConfig) -> dict:
    """Canonical fully-resolved config (plain rad/s and second values).

    This is what gets embedded in table metadata so that every figure
    is reproducible from its own file; execution details such as the
    worker count are deliberately excluded.  Tuples stay tuples here and
    serialize as JSON lists.
    """
    resolved = asdict(config)
    if resolved.pop("frame_auto"):
        resolved["model"]["frame"]["nu_ref"] = "auto"
    resolved["sweep"] = resolved.pop("axes")
    del resolved["options"]["workers"]
    return resolved


#: Parameter presets for the four bundled figure-style sweeps.  Values
#: are config fragments merged *under* the user's config file.
PRESETS: dict[str, dict] = {
    # plasmon number and inversion vs pump for three drive strengths
    "fig2": {
        "model": {"gain": {"gamma_ph": 0.0}},
        "sweep": [
            {"path": "gain.pump_g", "min": 0.0, "max": 2.0e13, "n": 81},
            {"path": "drive.omega_a_rabi", "values": [0.0, 4.0e12, 16.0e12]},
        ],
    },
    # plasmon number vs pump for four dephasing rates at fixed drive
    "fig3": {
        "model": {"drive": {"omega_a_rabi": 16.0e12}},
        "sweep": [
            {"path": "gain.pump_g", "min": 0.0, "max": 2.0e13, "n": 81},
            {"path": "gain.gamma_ph", "values": [0.0, 80.0e12, 160.0e12, 240.0e12]},
        ],
    },
    # growth rate over a drive grid for three pump rates
    "fig4a": {
        "model": {"gain": {"gamma_ph": 0.0}},
        "sweep": [
            {"path": "drive.omega_a_rabi", "min": 0.0, "max": 1.0e14, "n": 41},
            {"path": "gain.pump_g", "values": [4.4e12, 6.0e12, 8.0e12]},
        ],
    },
    # field build-up in time, undriven vs strongly driven
    "fig4b": {
        "model": {"gain": {"pump_g": 8.0e12, "gamma_ph": 0.0}},
        "sweep": [{"path": "drive.omega_a_rabi", "values": [0.0, 24.0e12]}],
        "trajectory": {"t_end": 6.0e-14, "store_every": 1},
    },
}
