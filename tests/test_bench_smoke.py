"""Smoke runs of the benchmark workloads (``bench/run.py --smoke``).

Each run drives the CLI on small grids through the benchmark's own
reference and invariant checks; its last output line is the JSON verdict.
The traced ``sweep`` and ``trajectory`` runs also install the per-layer
tracer.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _smoke(workload, *flags):
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--smoke", *flags],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True
    assert verdict["failed"] == 0
    return verdict


@pytest.mark.parametrize("workload", ["trajectory", "sweep", "onset", "stiff"])
def test_smoke_run_is_correct(workload):
    _smoke(workload)


# a metric each traced run reads from a wrapped layer of its workload
TRACED_LAYER = {
    "sweep": "analysis.steady_state_numeric.calls",
    "trajectory": "dynamics.integrate.steps_accepted",
}


# the wrapped call each grid point of the workload's command makes once
POINT_LAYER = {
    "sweep": "analysis.steady_state_numeric.calls",
    "trajectory": "dynamics.integrate.calls",
}


@pytest.mark.parametrize("workload", sorted(TRACED_LAYER))
def test_traced_smoke_run_is_correct(workload):
    """The traced run wraps public names of the package by name and reads
    counts off their results; one that is renamed or deleted, or that stops
    yielding its counts, breaks it here rather than only in full runs.  The
    CLI must make its per-point calls through those names, so every grid
    point shows up as one traced call."""
    verdict = _smoke(workload, "--trace", "1")
    metrics = verdict["metrics"]
    assert metrics[TRACED_LAYER[workload]]["value"] > 0
    assert metrics["cli.points"]["value"] == metrics[POINT_LAYER[workload]]["value"]
