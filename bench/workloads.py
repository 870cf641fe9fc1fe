"""Benchmark workloads: seeded config files and the CLI commands that read them.

Each workload is a fixed list of ``spaserkit`` CLI invocations.  The seed
only moves grid values (never the number of points), so every seed sends
the same amount of traffic through the same code paths; seed 0, the
default, reproduces the bundled figure grids exactly and is the seed the
stored reference tables belong to.

Why these four workloads (they stress different layers):

* ``sweep`` -- the paper's Fig. 2/3 steady-state traffic (567 grid points,
  Newton plus block solves, ``spasing_frequency``, ``growth_rate``) through
  the process pool.  ``dynamics`` is never called.
* ``onset`` -- a driven threshold sweep plus the coupling calibration:
  almost entirely the onset layer (``threshold_find`` ->
  ``spasing_frequency`` -> ``spasing_condition_residual``).
* ``trajectory`` -- the Fig. 4b build-up extended to 1 ps with every step
  stored: explicit DP5 steps limited by accuracy and the step cap, plus a
  4.5 MB table, so ``tables`` and the CLI's row building do real work.
* ``stiff`` -- the acceptance-5a regime, where stability rather than
  accuracy limits the explicit step size.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
WORKERS = 2
NAMES = ("sweep", "onset", "trajectory", "stiff")

_PUMP_AXIS = (0.0, 2.0e13, 81)
_FIG2_DRIVES = (0.0, 4.0e12, 16.0e12)
_FIG3_DEPHASING = (0.0, 80.0e12, 160.0e12, 240.0e12)
_ONSET_DRIVE_AXIS = (0.0, 3.2e13, 17)
_TRAJECTORY_DRIVES = (0.0, 4.0e12, 16.0e12, 24.0e12)
_STIFF_DRIVES = (1.0e15, 2.0e15)
_STIFF_MODEL = {
    "gain": {
        "gamma21": 4e12,
        "gamma32": 4e11,
        "gamma31": 4e10,
        "gamma_ph": 1e16,
        "pump_g": 5.2e12,
    },
    "plasmon": {"gamma_n": 1e12, "omega_b_single": 2e13, "n_p": 6e4},
}


@dataclass(frozen=True)
class Command:
    """One CLI call: ``argv`` lacks ``--workers``, which the runner adds."""

    label: str
    kind: str  # "steady", "threshold", "calibrate" or "trajectory"
    argv: tuple[str, ...]
    out: str
    config: str
    preset: str | None
    axis_path: str | None
    axis_values: tuple[float, ...]
    n_ops: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    smoke: bool
    commands: tuple[Command, ...]

    @property
    def n_ops(self) -> int:
        """Operations per iteration: grid rows, calibrate calls, axis values."""
        return sum(c.n_ops for c in self.commands)

    @property
    def checks_reference(self) -> bool:
        return self.seed == DEFAULT_SEED and not self.smoke


class _Jitter:
    """Seeded grid perturbation; seed 0 leaves every value untouched."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed) if seed != DEFAULT_SEED else None

    def _u(self) -> float:
        return 0.0 if self._rng is None else self._rng.uniform(-1.0, 1.0)

    def linear(self, lo: float, hi: float, n: int) -> list[float]:
        """Same points as a config ``min``/``max``/``n`` axis, interior
        points moved by up to 0.45 of the spacing (order is kept)."""
        step = (hi - lo) / (n - 1)
        values = [lo] + [lo + step * (i + 0.45 * self._u()) for i in range(1, n - 1)]
        return values + [hi]

    def scaled(self, values) -> list[float]:
        """Nonzero values scaled by up to +-5%; zero stays zero."""
        return [v * (1.0 + 0.05 * self._u()) if v else v for v in values]


def _write(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
    return path


def _command(label, kind, workdir, data, *, preset=None, axis=None):
    config = _write(os.path.join(workdir, f"{label}.json"), data)
    out = os.path.join(workdir, f"{label}.csv")
    cli = "steady-sweep" if kind == "steady" else kind
    argv = (cli, "--config", config, "--out", out)
    if preset is not None:
        argv += ("--preset", preset)
    n_ops = 1
    for node in data.get("sweep", []):
        n_ops *= len(node["values"])
    return Command(
        label=label,
        kind=kind,
        argv=argv,
        out=out,
        config=config,
        preset=preset,
        axis_path=None if axis is None else axis[0],
        axis_values=() if axis is None else tuple(axis[1]),
        n_ops=n_ops,
    )


def build(name: str, seed: int, workdir: str, *, smoke: bool = False) -> Workload:
    """Write the workload's config files into ``workdir`` and describe it.

    ``smoke`` shrinks every grid and horizon for a fast functional check.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    os.makedirs(workdir, exist_ok=True)
    jit = _Jitter(seed)
    pump_n = 9 if smoke else _PUMP_AXIS[2]
    commands: list[Command] = []
    if name == "sweep":
        pumps = jit.linear(_PUMP_AXIS[0], _PUMP_AXIS[1], pump_n)
        fig2 = {"sweep": [
            {"path": "gain.pump_g", "values": pumps},
            {"path": "drive.omega_a_rabi", "values": jit.scaled(_FIG2_DRIVES)},
        ]}
        pumps = jit.linear(_PUMP_AXIS[0], _PUMP_AXIS[1], pump_n)
        dephasing = jit.scaled(_FIG3_DEPHASING[:2] if smoke else _FIG3_DEPHASING)
        fig3 = {"sweep": [
            {"path": "gain.pump_g", "values": pumps},
            {"path": "gain.gamma_ph", "values": dephasing},
        ]}
        commands.append(_command("fig2", "steady", workdir, fig2, preset="fig2"))
        commands.append(_command("fig3", "steady", workdir, fig3, preset="fig3"))
    elif name == "onset":
        lo, hi, n = _ONSET_DRIVE_AXIS
        drives = jit.linear(lo, hi, 3 if smoke else n)
        axis = ("drive.omega_a_rabi", drives)
        data = {"sweep": [{"path": axis[0], "values": drives}]}
        commands.append(_command("threshold", "threshold", workdir, data, axis=axis))
        commands.append(_command("calibrate", "calibrate", workdir, {}))
    elif name == "trajectory":
        drives = jit.scaled(_TRAJECTORY_DRIVES[::2] if smoke else _TRAJECTORY_DRIVES)
        axis = ("drive.omega_a_rabi", drives)
        data = {
            "model": {"gain": {"pump_g": 8e12, "gamma_ph": 0.0}},
            "sweep": [{"path": axis[0], "values": drives}],
            "trajectory": {
                "t_end": {"value": 0.05 if smoke else 1.0, "unit": "ps"},
                "store_every": 1,
            },
        }
        commands.append(_command("trajectory", "trajectory", workdir, data, axis=axis))
    else:
        drives = jit.scaled(_STIFF_DRIVES[:1] if smoke else _STIFF_DRIVES)
        axis = ("drive.omega_a_rabi", drives)
        data = {
            "model": _STIFF_MODEL,
            "sweep": [{"path": axis[0], "values": drives}],
            "trajectory": {
                "t_end": {"value": 0.5 if smoke else 8.0, "unit": "ps"},
                "store_every": 100,
            },
        }
        commands.append(_command("stiff", "trajectory", workdir, data, axis=axis))
    return Workload(name=name, seed=seed, smoke=smoke, commands=tuple(commands))
