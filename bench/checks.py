"""Output checks: the reference tables of seed 0 and invariants for any seed.

Tolerances are the tier-1 suite's own bars for each quantity (the test
that sets each one is named beside it), never looser, so a later change
passes here only if it would pass the acceptance tolerances.  Tables are
compared by value, never by bytes: row by row, with the axis values equal,
and trajectories through per-drive summaries because step times
legitimately change with the integrator.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from workloads import Command, Workload

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# (relative, absolute) tolerance per column.
_TOL = {
    "N_n": (1e-6, 1e-30),  # tests/test_steady_state.py frozen operating points
    "n21": (1e-6, 1e-9),  # acceptance 1 (inversions)
    "n32": (1e-6, 1e-9),  # acceptance 1
    "nu_s": (1e-12, 0.0),  # tests/test_frequency.py frame independence
    "g_th": (1e-6, 0.0),  # tests/test_threshold.py frozen threshold
    "g_th_growth": (1e-6, 0.0),  # same quantity by the growth-rate root
    "omega_b_single": (1e-6, 0.0),  # tests/test_calibration.py
    "threshold_ratio": (1e-6, 0.0),  # a ratio of two g_th values
    "g_th_drive_off": (1e-6, 0.0),  # tests/test_threshold.py
    "g_th_drive_on": (1e-6, 0.0),
    "final_N_n": (1e-6, 1e-30),  # tests/test_steady_state.py
    "final_pop": (1e-6, 1e-9),  # acceptance 1
    "peak_N_n": (1e-2, 0.0),  # tests/test_cli.py trajectory plasmon number
}
THRESHOLD_AGREEMENT = 0.01  # acceptance 3: residual vs growth-rate threshold
TRACE_BOUND = 1e-6  # acceptance 2
POPULATION_BOUND = 1e-6  # integrate(): max(1e-6, 10 * rel_tol) at the CLI's rel_tol
STEADY_MATCH = 1e-5  # tier-1 allows 1e-3 (test_steady_state: integration vs Newton)
CALIBRATION_TARGET = 2.0  # tests/test_calibration.py: ratio within 1%


@dataclass
class Table:
    columns: list[str]
    rows: list[list[float]]

    def col(self, name: str) -> int:
        return self.columns.index(name)


@dataclass
class Verdict:
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spasing_rows: int = 0
    zero_rows: int = 0


def read_table(path: str) -> Table:
    """Read a CLI CSV table: '#' metadata lines, a 'name (unit)' header, numbers."""
    columns: list[str] | None = None
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if columns is None:
                columns = [c.rpartition(" (")[0] or c for c in cells]
            else:
                rows.append([float(c) for c in cells])
    if columns is None:
        raise ValueError(f"{path}: no header row")
    return Table(columns, rows)


def _close(name: str, got: float, want: float) -> bool:
    rel, abs_ = _TOL[name]
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= max(rel * abs(want), abs_)


def trajectory_summary(table: Table, axis: str) -> dict[float, dict]:
    """Per axis value: peak and final plasmon number, final time and state."""
    iax, it, inn = table.col(axis), table.col("t"), table.col("N_n")
    pops = [table.col(c) for c in ("rho11", "rho22", "rho33", "re_rho21", "im_rho21")]
    out: dict[float, dict] = {}
    for row in table.rows:
        entry = out.setdefault(row[iax], {"peak_N_n": -math.inf})
        entry["peak_N_n"] = max(entry["peak_N_n"], row[inn])
        entry["t_final"] = row[it]
        entry["final_N_n"] = row[inn]
        entry["final_pop"] = [row[i] for i in pops]
    return out


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def reference_record(workload: Workload) -> dict:
    """What the reference file stores for one finished iteration."""
    record: dict = {}
    for cmd in workload.commands:
        table = read_table(cmd.out)
        if cmd.kind == "trajectory":
            summary = trajectory_summary(table, cmd.axis_path)
            record[cmd.label] = [[k, v] for k, v in summary.items()]
        else:
            record[cmd.label] = {"columns": table.columns, "rows": table.rows}
    return record


class Checker:
    """Checks every iteration's tables; expectations are computed once."""

    def __init__(self, workload: Workload, steady_n_n: dict[float, float] | None = None):
        self.workload = workload
        self.reference = (
            load_reference(workload.name)["tables"] if workload.checks_reference else None
        )
        self.steady_n_n = steady_n_n or {}

    def check(self, codes: list[int]) -> Verdict:
        verdict = Verdict()
        for cmd, code in zip(self.workload.commands, codes):
            if code == 1 or not os.path.exists(cmd.out):
                verdict.failed += cmd.n_ops
                verdict.problems.append(f"{cmd.label}: exit code {code}, no table")
                continue
            before = verdict.failed
            table = read_table(cmd.out)
            os.remove(cmd.out)
            getattr(self, f"_check_{cmd.kind}")(cmd, table, verdict)
            if code != 0 and verdict.failed == before:
                verdict.failed += 1
                verdict.problems.append(f"{cmd.label}: exit code {code}")
        return verdict

    # -- per command kind ---------------------------------------------------

    def _rows_vs_reference(self, cmd: Command, table: Table, n_axes: int, verdict: Verdict):
        if self.reference is None:
            return
        ref = self.reference[cmd.label]
        if ref["columns"] != table.columns or len(ref["rows"]) != len(table.rows):
            verdict.problems.append(f"{cmd.label}: table shape differs from the reference")
            return
        for want, got in zip(ref["rows"], table.rows):
            if want[:n_axes] != got[:n_axes]:
                verdict.problems.append(f"{cmd.label}: axis values differ from the reference")
                return
            for name, w, g in zip(table.columns[n_axes:], want[n_axes:], got[n_axes:]):
                if name in _TOL and not _close(name, g, w):
                    verdict.problems.append(
                        f"{cmd.label}: {name} = {g!r} at {got[:n_axes]}, reference {w!r}"
                    )

    def _check_steady(self, cmd: Command, table: Table, verdict: Verdict) -> None:
        if len(table.rows) != cmd.n_ops:
            verdict.failed += abs(cmd.n_ops - len(table.rows))
        inn, iconv = table.col("N_n"), table.col("converged")
        for row in table.rows:
            if not (math.isfinite(row[inn]) and row[inn] >= 0.0) or row[iconv] != 1.0:
                verdict.failed += 1
            elif row[inn] > 0.0:
                verdict.spasing_rows += 1
            else:
                verdict.zero_rows += 1
        self._rows_vs_reference(cmd, table, 2, verdict)

    def _check_threshold(self, cmd: Command, table: Table, verdict: Verdict) -> None:
        if len(table.rows) != cmd.n_ops:
            verdict.failed += abs(cmd.n_ops - len(table.rows))
        ig, igg = table.col("g_th"), table.col("g_th_growth")
        for row in table.rows:
            g, gg = row[ig], row[igg]
            if not (math.isfinite(g) and math.isfinite(gg)):
                verdict.failed += 1
            elif abs(g - gg) > THRESHOLD_AGREEMENT * g:
                verdict.problems.append(
                    f"{cmd.label}: g_th {g!r} and g_th_growth {gg!r} differ by more than 1%"
                )
        self._rows_vs_reference(cmd, table, 1, verdict)

    def _check_calibrate(self, cmd: Command, table: Table, verdict: Verdict) -> None:
        if len(table.rows) != 1 or len(table.columns) != 4:
            verdict.failed += 1
            return
        ratio = table.rows[0][table.col("threshold_ratio")]
        if not abs(ratio - CALIBRATION_TARGET) <= 0.01 * CALIBRATION_TARGET:
            verdict.problems.append(f"{cmd.label}: threshold ratio {ratio!r} misses the target")
        self._rows_vs_reference(cmd, table, 0, verdict)

    def _check_trajectory(self, cmd: Command, table: Table, verdict: Verdict) -> None:
        it, itr = table.col("t"), table.col("trace_err")
        ipops = [table.col(c) for c in ("rho11", "rho22", "rho33")]
        for row in table.rows:
            if not abs(row[itr]) <= TRACE_BOUND:
                verdict.problems.append(f"{cmd.label}: trace error {row[itr]!r} at t = {row[it]!r}")
                break
            if not all(-POPULATION_BOUND <= row[i] <= 1.0 + POPULATION_BOUND for i in ipops):
                verdict.problems.append(f"{cmd.label}: population outside [0, 1] at t = {row[it]!r}")
                break
        summary = trajectory_summary(table, cmd.axis_path)
        t_end = max((s["t_final"] for s in summary.values()), default=0.0)
        for value in cmd.axis_values:
            entry = summary.get(value)
            if entry is None or entry["t_final"] != t_end:
                verdict.failed += 1
                continue
            steady = self.steady_n_n.get(value)
            if steady is not None and abs(entry["final_N_n"] - steady) > STEADY_MATCH * steady:
                verdict.problems.append(
                    f"{cmd.label}: final N_n {entry['final_N_n']!r} at drive {value!r} "
                    f"misses the steady state {steady!r}"
                )
        if self.reference is None:
            return
        for value, want in self.reference[cmd.label]:
            got = summary.get(value)
            if got is None:
                verdict.problems.append(f"{cmd.label}: drive {value!r} missing")
                continue
            keys = ["peak_N_n"] + (["final_N_n"] if want["settled"] else [])
            for key in keys:
                if not _close(key, got[key], want[key]):
                    verdict.problems.append(
                        f"{cmd.label}: {key} = {got[key]!r} at drive {value!r}, reference {want[key]!r}"
                    )
            if want["settled"] and not all(
                _close("final_pop", g, w) for g, w in zip(got["final_pop"], want["final_pop"])
            ):
                verdict.problems.append(f"{cmd.label}: final state at drive {value!r} differs")
