"""Smoke runs of the benchmark workloads (``bench/run.py --smoke``).

Each run drives the CLI on small grids through the benchmark's own
reference and invariant checks; its last output line is the JSON verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["trajectory", "sweep", "onset", "stiff"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True
    assert verdict["failed"] == 0
