"""Command-line sweep tooling.

Subcommands: ``trajectory`` | ``steady-sweep`` | ``threshold`` |
``stability`` | ``calibrate``.  Each reads a JSON config (optionally
layered over a ``--preset``), evaluates the requested quantity over the
sweep grid, and emits a figure-ready CSV or JSON table.

Exit codes: 0 — success; 2 — partial convergence (a table is still
emitted with the unconverged rows flagged); 1 — config or usage error.

Grid points (for ``trajectory``, its axis values) are evaluated by
independent workers sharing only the immutable config; rows and the
``trajectory failed at`` messages are collected in lexicographic axis
order, so output is bit-identical regardless of worker count.  Warnings
raised inside a pool worker are printed by that worker.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from .analysis import (
    calibrate_coupling,
    frame_at_spasing_frequency,
    growth_rate,
    steady_state_numeric,
    threshold_find,
    weak_field_background,
)
from .config import PRESETS, RunConfig, parse_config, resolved_config_dict
from .dynamics import integrate
from .errors import CalibrationError, ConfigError, SpaserError
from .params import ModelParams, set_param
from .state import SpaserState
from .tables import SweepTable, build_metadata, write_table

__all__ = ["entry_point", "main"]

_AXIS_UNITS = {"plasmon.n_p": "1"}


def _axis_unit(path: str) -> str:
    return _AXIS_UNITS.get(path, "rad/s")


def _point_params(model: ModelParams, paths: tuple[str, ...], values: tuple) -> ModelParams:
    for path, value in zip(paths, values):
        model = set_param(model, path, float(value))
    return model


def _grid(config: RunConfig) -> list[tuple]:
    points = [()]
    for axis in config.axes:
        points = [p + (v,) for p in points for v in axis.values]
    return points


def _map_points(worker, tasks, n_workers: int) -> list:
    if n_workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    workers = min(n_workers, len(tasks))
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


# --- per-point workers (top level so they pickle) ----------------------------


def _steady_point(task) -> tuple:
    model, paths, values = task
    try:
        params = _point_params(model, paths, values)
        res = steady_state_numeric(params)
        return values + (res.n_n, res.n21, res.n32, res.nu_s, res.converged)
    except SpaserError:
        return values + (math.nan, math.nan, math.nan, math.nan, False)


def _threshold_point(task) -> tuple:
    model, paths, values, bracket = task
    try:
        params = _point_params(model, paths, values)
        res = threshold_find(params, bracket)
        growth = math.nan if res.g_th_growth is None else res.g_th_growth
        return values + (res.g_th, growth, res.nu_s)
    except SpaserError:
        return values + (math.nan, math.nan, math.nan)


def _stability_point(task) -> tuple:
    model, paths, values = task
    extra = tuple(
        v for p, v in zip(paths, values)
        if p not in ("drive.omega_a_rabi", "gain.pump_g")
    )
    overrides = dict(zip(paths, values))
    head = extra + (
        float(overrides.get("drive.omega_a_rabi", model.drive.omega_a_rabi)),
        float(overrides.get("gain.pump_g", model.gain.pump_g)),
    )
    try:
        params = _point_params(model, paths, values)
        res = growth_rate(params)
        return head + (
            res.gamma_s,
            res.gamma_s_over_gamma_n,
            res.leading.real,
            res.leading.imag,
        )
    except SpaserError:
        return head + (math.nan, math.nan, math.nan, math.nan)


def _trajectory_point(task) -> list[tuple] | str:
    """Rows of one axis value's run, or the message of the error that
    stopped it."""
    config, value = task
    axis = config.axes[0] if config.axes else None
    rel_tol = min(max(config.tol * 1e-2, 1e-12), 1e-6)
    try:
        model = config.model
        if axis is not None:
            model = set_param(model, axis.path, float(value))
        params = frame_at_spasing_frequency(model) if config.frame_auto else model
        state0 = SpaserState(
            rho=weak_field_background(params),
            amplitude=complex(config.seed_amplitude, 0.0),
        )
        traj = integrate(
            state0,
            params,
            config.trajectory.t_end,
            rel_tol=rel_tol,
            abs_tol=rel_tol * 1e-2,
            store_every=config.trajectory.store_every,
        )
    except SpaserError as exc:
        return str(exc)
    # t, N_n, p1, p2, p3, Re rho21, Im rho21, trace error
    block = np.column_stack((traj.t, traj.n_n, traj.y[:, :5], traj.trace_error))
    prefix: tuple = () if axis is None else (float(value),)
    return [prefix + tuple(row) for row in block.tolist()]


# --- commands -----------------------------------------------------------------


def _cmd_steady_sweep(config: RunConfig) -> tuple[SweepTable, bool]:
    if not config.axes:
        raise ConfigError("steady-sweep needs between 1 and 3 sweep axes")
    paths = tuple(axis.path for axis in config.axes)
    tasks = [(config.model, paths, values) for values in _grid(config)]
    rows = _map_points(_steady_point, tasks, config.resolved_workers())
    columns = tuple((p, _axis_unit(p)) for p in paths) + (
        ("N_n", "1"),
        ("n21", "1"),
        ("n32", "1"),
        ("nu_s", "rad/s"),
        ("converged", "1"),
    )
    partial = any(not row[-1] for row in rows)
    table = SweepTable(
        columns=columns,
        rows=tuple(rows),
        metadata=build_metadata("steady-sweep", resolved_config_dict(config)),
    )
    return table, partial


def _cmd_threshold(config: RunConfig) -> tuple[SweepTable, bool]:
    if len(config.axes) > 1:
        raise ConfigError("threshold supports at most 1 sweep axis")
    paths = tuple(axis.path for axis in config.axes)
    tasks = [
        (config.model, paths, values, config.threshold_bracket)
        for values in _grid(config)
    ]
    rows = _map_points(_threshold_point, tasks, config.resolved_workers())
    columns = tuple((p, _axis_unit(p)) for p in paths) + (
        ("g_th", "rad/s"),
        ("g_th_growth", "rad/s"),
        ("nu_s", "rad/s"),
    )
    # a missing threshold is a sentinel row, not a failure
    table = SweepTable(
        columns=columns,
        rows=tuple(rows),
        metadata=build_metadata("threshold", resolved_config_dict(config)),
    )
    return table, False


def _cmd_stability(config: RunConfig) -> tuple[SweepTable, bool]:
    if len(config.axes) > 2:
        raise ConfigError("stability supports at most 2 sweep axes")
    paths = tuple(axis.path for axis in config.axes)
    tasks = [(config.model, paths, values) for values in _grid(config)]
    rows = _map_points(_stability_point, tasks, config.resolved_workers())
    extra_paths = tuple(
        p for p in paths if p not in ("drive.omega_a_rabi", "gain.pump_g")
    )
    columns = tuple((p, _axis_unit(p)) for p in extra_paths) + (
        ("omega_a", "rad/s"),
        ("pump_g", "rad/s"),
        ("gamma_s", "rad/s"),
        ("gamma_s_over_gamma_n", "1"),
        ("leading_re", "rad/s"),
        ("leading_im", "rad/s"),
    )
    partial = any(math.isnan(row[len(extra_paths) + 2]) for row in rows)
    table = SweepTable(
        columns=columns,
        rows=tuple(rows),
        metadata=build_metadata("stability", resolved_config_dict(config)),
    )
    return table, partial


def _cmd_trajectory(config: RunConfig) -> tuple[SweepTable, bool]:
    if len(config.axes) > 1:
        raise ConfigError("trajectory supports at most 1 sweep axis")
    axis = config.axes[0] if config.axes else None
    axis_values: tuple = axis.values if axis else (None,)
    tasks = [(config, value) for value in axis_values]
    results = _map_points(_trajectory_point, tasks, config.resolved_workers())
    rows: list[tuple] = []
    partial = False
    for value, result in zip(axis_values, results):
        if isinstance(result, str):
            where = "the base point" if axis is None else f"{axis.path}={value}"
            print(f"trajectory failed at {where}: {result}", file=sys.stderr)
            partial = True
        else:
            rows.extend(result)
    columns = (
        tuple(((axis.path, _axis_unit(axis.path)),) if axis else ())
        + (
            ("t", "s"),
            ("N_n", "1"),
            ("rho11", "1"),
            ("rho22", "1"),
            ("rho33", "1"),
            ("re_rho21", "1"),
            ("im_rho21", "1"),
            ("trace_err", "1"),
        )
    )
    table = SweepTable(
        columns=columns,
        rows=tuple(rows),
        metadata=build_metadata("trajectory", resolved_config_dict(config)),
    )
    return table, partial


def _cmd_calibrate(config: RunConfig) -> tuple[SweepTable, bool]:
    meta = build_metadata("calibrate", resolved_config_dict(config))
    try:
        coupling = calibrate_coupling(
            config.model,
            target_ratio=config.calibrate_target,
            omega_a_on=config.calibrate_omega_a_on,
            bracket=config.calibrate_bracket,
        )
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        curve = exc.curve or []
        table = SweepTable(
            columns=(("omega_b_single", "rad/s"), ("threshold_ratio", "1")),
            rows=tuple((w, r) for w, r in curve),
            metadata=meta,
        )
        return table, True
    calibrated = set_param(config.model, "plasmon.omega_b_single", coupling)
    g_off = threshold_find(
        set_param(calibrated, "drive.omega_a_rabi", 0.0), cross_check=False
    ).g_th
    g_on = threshold_find(
        set_param(calibrated, "drive.omega_a_rabi", config.calibrate_omega_a_on),
        cross_check=False,
    ).g_th
    table = SweepTable(
        columns=(
            ("omega_b_single", "rad/s"),
            ("threshold_ratio", "1"),
            ("g_th_drive_off", "rad/s"),
            ("g_th_drive_on", "rad/s"),
        ),
        rows=((coupling, g_off / g_on, g_off, g_on),),
        metadata=meta,
    )
    return table, False


_COMMANDS = {
    "steady-sweep": _cmd_steady_sweep,
    "threshold": _cmd_threshold,
    "stability": _cmd_stability,
    "trajectory": _cmd_trajectory,
    "calibrate": _cmd_calibrate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spaserkit",
        description="Plasmon-amplifier sweeps: steady states, thresholds, "
        "stability and time-domain runs, emitted as figure-ready tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "trajectory": "integrate the coupled equations in time",
        "steady-sweep": "steady-state operating point over a parameter grid",
        "threshold": "pump threshold (residual root + growth-rate cross-check)",
        "stability": "linear growth rate of the zero-field state over a grid",
        "calibrate": "fit the coupling to the threshold-ratio target",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--workers", type=int, help="parallel grid workers")
        cmd.add_argument(
            "--tol", type=float, help="relative integration tolerance (trajectory only)"
        )
        cmd.add_argument(
            "--seed-amplitude",
            type=float,
            dest="seed_amplitude",
            help="initial plasmon amplitude of a time-domain run (trajectory only)",
        )
        cmd.add_argument("--preset", choices=sorted(PRESETS), help="parameter preset")
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config = replace(config, workers=args.workers)
    if args.tol is not None:
        if args.tol <= 0.0:
            raise ConfigError("--tol must be positive")
        config = replace(config, tol=args.tol)
    if args.seed_amplitude is not None:
        if args.seed_amplitude <= 0.0:
            raise ConfigError("--seed-amplitude must be positive")
        config = replace(config, seed_amplitude=args.seed_amplitude)
    return config


def entry_point(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = parse_config(args.config, preset=args.preset)
        config = _apply_overrides(config, args)
        table, partial = _COMMANDS[args.command](config)
        text = write_table(table, args.out, args.format)
        if args.out is None:
            sys.stdout.write(text)
        return 2 if partial else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(entry_point())
