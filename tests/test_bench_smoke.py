"""Smoke runs of the benchmark workloads (``bench/run.py --smoke``).

Each run drives the CLI on small grids through the benchmark's own
reference and invariant checks; its last output line is the JSON verdict.
The traced ``sweep`` run also installs the per-layer tracer.
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


def test_traced_smoke_run_is_correct():
    """The traced run wraps public names of the package by name; one that
    is renamed or deleted breaks it here rather than only in full runs."""
    verdict = _smoke("sweep", "--trace", "1")
    assert verdict["metrics"]["analysis.steady_state_numeric.calls"]["value"] > 0
