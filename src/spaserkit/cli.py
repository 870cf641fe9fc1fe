"""Command-line sweep tooling.

Subcommands: ``trajectory`` | ``steady-sweep`` | ``threshold`` |
``stability`` | ``calibrate``.  Each reads a JSON config (optionally
layered over a ``--preset``), evaluates the requested quantity over the
sweep grid, and emits a figure-ready CSV or JSON table.

Each of the four grid commands is one entry of ``_GRIDS``: what one grid
point computes, the table's columns, the axis counts it accepts, and
what a failed point becomes (a NaN row, or a ``<command> failed at``
line on stderr for ``trajectory``).  One runner, ``_run_grid``, runs
every entry.  ``calibrate`` is not a grid; it runs in the calling process
and takes no sweep axes, checked by the grids' axis-count rule.  The
``--workers``, ``--tol`` and ``--seed-amplitude`` flags replace the
file's ``options`` values before the config check, their only check.

Exit codes: 0 — success; 2 — partial convergence (a table is still
emitted with the unconverged rows flagged); 1 — config or usage error,
or an ``--out`` path that cannot be written.
For ``threshold``, only a missing threshold (``NoThresholdError``) is a
sentinel: its NaN row exits 0.  Any other error at a point, such as a
swept value the model rejects, also writes the NaN row but exits 2.

Grid points (for ``trajectory``, its axis values) are cut, in
lexicographic axis order, into chunks of max(1, n // (4 workers)), and a
pool of workers, sharing only the immutable config, takes one chunk at a
time (``_chunk``).  A chunk's points run as lanes
(``analysis._run_lanes``): each point runs its own scalar code, and the
block solves and spectra of all the chunk's points go to NumPy as one
stacked call per round, which gives each point the bits it would get
alone.  A point runs an analysis function's lane, its ``.lane``, through
``_lane``; a function without one is called once per point.
``steady-sweep`` and ``stability`` points do all their linear algebra
this way, the auto frame's spasing frequency included, and so do the
auto frame and weak-field background of a ``trajectory`` point; the root
finding of ``threshold`` and the time stepping of ``trajectory`` run one
point after another.  The worker also renders each point's rows in the
output format with the one row renderer, ``tables.render_rows``, the
point's axis cells written once for all of them, and records the
warnings the point raised.  The calling process collects the lines,
the ``failed at`` messages and the warnings in axis order, prints each
warning message once with the file and line that raised it, and writes
the lines: output and stderr are the same for any worker count.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import warnings
from collections.abc import Callable, Generator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import (
    _run_lanes,
    calibrate_coupling,
    frame_at_spasing_frequency,
    growth_rate,
    steady_state_numeric,
    threshold_find,
    weak_field_background,
)
from .config import PRESETS, RunConfig, parse_config, resolved_config_dict
from .dynamics import integrate
from .errors import ConfigError, NoThresholdError, SpaserError
from .params import ModelParams, get_param, param_unit, set_param
from .state import SpaserState
from .tables import SweepTable, build_metadata, render_rows, write_table

__all__ = ["entry_point", "main"]

def _map_chunks(tasks: list, n_workers: int) -> list:
    """``_chunk`` over the tasks cut into chunks of max(1, n // (4 workers))
    points, in a pool of ``n_workers`` processes (in this one for a single
    worker or a single task); the points' outcomes in task order."""
    workers = max(1, min(n_workers, len(tasks)))
    size = max(1, len(tasks) // (4 * workers))
    chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    if workers == 1:
        done = [_chunk(chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_chunk, chunks))
    return [outcome for chunk in done for outcome in chunk]


# --- what one grid point computes ---------------------------------------------
# Each is a lane (see ``analysis._run_lanes``) that returns the point's rows
# (sequences of cells) without their axis columns.  They call the analysis
# layer through this module's globals, which a tracer may patch, and
# through ``_lane``.


def _lane(fn, *args) -> Generator:
    """``fn(*args)`` as a lane for a grid point to ``yield from``.  A function
    with a ``.lane`` (see ``analysis._lane_function``) runs as that lane, so
    its linear algebra is stacked with the other points' of the chunk.  Any
    other function, or a name replaced by a wrapper (a tracer's, say), is
    called once per point, so the wrapper sees every point."""
    lane = getattr(fn, "lane", None)
    if lane is None:
        return fn(*args)
    return (yield from lane(*args))


def _steady(params: ModelParams, config: RunConfig) -> Generator:
    res = yield from _lane(steady_state_numeric, params)
    # a point that fails raises, and its row is ``failed``
    return [(res.n_n, res.n21, res.n32, res.nu_s, True)]


def _threshold(params: ModelParams, config: RunConfig) -> Generator:
    res = yield from _lane(threshold_find, params, config.threshold.bracket)
    growth = math.nan if res.g_th_growth is None else res.g_th_growth
    return [(res.g_th, growth, res.nu_s)]


def _stability(params: ModelParams, config: RunConfig) -> Generator:
    if config.frame_auto:
        params = yield from _lane(frame_at_spasing_frequency, params)
    res = yield from _lane(growth_rate, params)
    return [(res.gamma_s, res.gamma_s_over_gamma_n, res.leading.real, res.leading.imag)]


def _trajectory(params: ModelParams, config: RunConfig) -> Generator:
    if config.frame_auto:
        params = yield from _lane(frame_at_spasing_frequency, params)
    rho = yield from _lane(weak_field_background, params)
    state0 = SpaserState(rho=rho, amplitude=complex(config.options.seed_amplitude, 0.0))
    rel_tol = min(max(config.options.tol * 1e-2, 1e-12), 1e-6)
    traj = integrate(
        state0, params, config.trajectory.t_end, rel_tol=rel_tol,
        abs_tol=rel_tol * 1e-2, store_every=config.trajectory.store_every,
    )
    # t, N_n, p1, p2, p3, Re rho21, Im rho21, trace error
    block = np.column_stack((traj.t, traj.n_n, traj.y[:, :5], traj.trace_error))
    return block.tolist()


@dataclass(frozen=True)
class _Grid:
    """One grid command.

    ``compute(params, config)`` is the lane that gives the rows of one
    point, and ``columns`` their names and units.  Each row starts with
    the swept values; the parameters of ``lead`` (path, column name) come
    after the other axes, swept or not.  ``axes`` is the (min, max) number
    of sweep axes, and the only statement of that rule: ``_check_axes``
    words its error from it.
    A point that raises a :class:`SpaserError` becomes the row ``failed``
    or, when that is None, a ``<command> failed at`` line on stderr; it
    makes the run partial (exit 2) unless the error is a ``sentinel``.
    """

    help: str
    compute: Callable[[ModelParams, RunConfig], Generator]
    columns: tuple[tuple[str, str], ...]
    axes: tuple[int, int]
    failed: tuple | None
    sentinel: tuple[type[SpaserError], ...] = ()
    lead: tuple[tuple[str, str], ...] = ()


_GRIDS = {
    "trajectory": _Grid(
        help="integrate the coupled equations in time",
        compute=_trajectory,
        columns=(("t", "s"), ("N_n", "1"), ("rho11", "1"), ("rho22", "1"),
                 ("rho33", "1"), ("re_rho21", "1"), ("im_rho21", "1"),
                 ("trace_err", "1")),
        axes=(0, 1),
        failed=None,
    ),
    "steady-sweep": _Grid(
        help="steady-state operating point over a parameter grid",
        compute=_steady,
        columns=(("N_n", "1"), ("n21", "1"), ("n32", "1"), ("nu_s", "rad/s"),
                 ("converged", "1")),
        axes=(1, 3),
        failed=(math.nan,) * 4 + (False,),
    ),
    "threshold": _Grid(
        help="pump threshold (residual root + growth-rate cross-check)",
        compute=_threshold,
        columns=(("g_th", "rad/s"), ("g_th_growth", "rad/s"), ("nu_s", "rad/s")),
        axes=(0, 1),
        failed=(math.nan,) * 3,
        # a missing threshold is a sentinel row, not a failure
        sentinel=(NoThresholdError,),
    ),
    "stability": _Grid(
        help="linear growth rate of the zero-field state over a grid",
        compute=_stability,
        columns=(("gamma_s", "rad/s"), ("gamma_s_over_gamma_n", "1"),
                 ("leading_re", "rad/s"), ("leading_im", "rad/s")),
        axes=(0, 2),
        failed=(math.nan,) * 4,
        lead=(("drive.omega_a_rabi", "omega_a"), ("gain.pump_g", "pump_g")),
    ),
}


def _point(command: str, config: RunConfig, values: tuple, fmt: str) -> Generator:
    """Lane: the rows of one grid point, rendered in ``fmt``, and the message
    of the error that stopped it (None if none did, or if it is a sentinel)."""
    grid = _GRIDS[command]
    lead = dict(grid.lead)
    swept = dict(zip((axis.path for axis in config.axes), values))
    head = tuple(v for p, v in swept.items() if p not in lead) + tuple(
        float(swept.get(p, get_param(config.model, p))) for p in lead
    )
    try:
        params = config.model
        for path, value in swept.items():
            params = set_param(params, path, float(value))
        rows = yield from grid.compute(params, config)
        return render_rows(head, rows, fmt), None
    except SpaserError as exc:
        rows = () if grid.failed is None else (grid.failed,)
        error = None if isinstance(exc, grid.sentinel) else str(exc)
        return render_rows(head, rows, fmt), error


def _chunk(tasks: list) -> list:
    """One chunk of grid points run as lanes together
    (``analysis._run_lanes``): per point its rendered rows, its error
    message and the warnings it raised, as (message, category, file,
    line).  An error that is not a :class:`SpaserError` stops the run."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        outcomes, caught = _run_lanes((_point(*task) for task in tasks), log)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [
        (rows, error, [(str(w.message), w.category, w.filename, w.lineno) for w in ws])
        for (rows, error), ws in zip(outcomes, caught)
    ]


def _check_axes(command: str, config: RunConfig, least: int, most: int) -> None:
    """The one check of a command's number of sweep axes, ``least`` to ``most``."""
    if not least <= len(config.axes) <= most:
        rule = ("takes no" if not most else f"needs between {least} and {most}"
                if least else f"supports at most {most}")
        raise ConfigError(f"{command} {rule} sweep ax{'is' if most == 1 else 'es'}")


def _run_grid(command: str, config: RunConfig, fmt: str) -> tuple[SweepTable, bool]:
    """Every point of the grid in lexicographic axis order, as one table
    whose rows are already rendered in ``fmt``."""
    grid = _GRIDS[command]
    _check_axes(command, config, *grid.axes)
    points = list(itertools.product(*(axis.values for axis in config.axes)))
    tasks = [(command, config, values, fmt) for values in points]
    results = _map_chunks(tasks, config.resolved_workers())
    paths = [axis.path for axis in config.axes]
    rows: list[str] = []
    partial = False
    shown: set[tuple] = set()
    for values, (point_rows, error, caught) in zip(points, results):
        rows.extend(point_rows)
        for message, category, filename, lineno in caught:
            if (category, message) not in shown:
                shown.add((category, message))
                warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            partial = True
            if grid.failed is None:
                where = ", ".join(f"{p}={v}" for p, v in zip(paths, values))
                print(f"{command} failed at {where or 'the base point'}: {error}",
                      file=sys.stderr)
    lead = dict(grid.lead)
    columns = (
        tuple((p, param_unit(p)) for p in paths if p not in lead)
        + tuple((name, param_unit(p)) for p, name in grid.lead)
        + grid.columns
    )
    meta = build_metadata(command, resolved_config_dict(config))
    return SweepTable(columns=columns, rows=tuple(rows), metadata=meta), partial


def _cmd_calibrate(config: RunConfig) -> tuple[SweepTable, bool]:
    _check_axes("calibrate", config, 0, 0)  # one point, the config's model
    meta = build_metadata("calibrate", resolved_config_dict(config))
    cal = config.calibrate
    try:
        res = calibrate_coupling(
            config.model,
            target_ratio=cal.target_ratio,
            omega_a_on=cal.omega_a_on,
            bracket=cal.bracket,
        )
    except SpaserError as exc:  # a detuned drive, say, as well as a missed target
        print(f"calibration failed: {exc}", file=sys.stderr)
        curve = getattr(exc, "curve", [])
        table = SweepTable(
            columns=(("omega_b_single", "rad/s"), ("threshold_ratio", "1")),
            rows=tuple((w, r) for w, r in curve),
            metadata=meta,
        )
        return table, True
    table = SweepTable(
        columns=(
            ("omega_b_single", "rad/s"),
            ("threshold_ratio", "1"),
            ("g_th_drive_off", "rad/s"),
            ("g_th_drive_on", "rad/s"),
        ),
        rows=((res.omega_b_single, res.threshold_ratio, res.g_th_drive_off,
               res.g_th_drive_on),),
        metadata=meta,
    )
    return table, False


_HELP = {
    **{name: grid.help for name, grid in _GRIDS.items()},
    "calibrate": "fit the coupling to the threshold-ratio target",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spaserkit",
        description="Plasmon-amplifier sweeps: steady states, thresholds, "
        "stability and time-domain runs, emitted as figure-ready tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _HELP.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument(
            "--workers",
            type=int,
            help="parallel grid workers" if name in _GRIDS
            else "accepted and ignored: calibrate runs in the calling process",
        )
        if name == "trajectory":
            cmd.add_argument(
                "--tol",
                type=float,
                help="integration tolerance X: steps run at relative tolerance "
                "min(max(X/100, 1e-12), 1e-6) and absolute tolerance a "
                "hundredth of that, so every X >= 1e-4 gives the same run",
            )
            cmd.add_argument(
                "--seed-amplitude",
                type=float,
                dest="seed_amplitude",
                help="initial plasmon amplitude of the run",
            )
        cmd.add_argument("--preset", choices=sorted(PRESETS), help="parameter preset")
    return parser


def entry_point(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # the flags given; --tol and --seed-amplitude exist on trajectory only
        flags = {k: v for k in ("workers", "tol", "seed_amplitude")
                 if (v := getattr(args, k, None)) is not None}
        config = parse_config(args.config, args.preset, flags)
        if args.command in _GRIDS:
            table, partial = _run_grid(args.command, config, args.format)
        else:
            table, partial = _cmd_calibrate(config)
        try:
            text = write_table(table, args.out, args.format)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
        if args.out is None:
            sys.stdout.write(text)
        return 2 if partial else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(entry_point())
