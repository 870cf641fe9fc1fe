"""Regenerate the seed-0 reference tables in ``bench/reference/``.

    python3 bench/make_reference.py [workload ...]

Only run this on a commit whose outputs are trusted: the files it writes
are the bar every later run of seed 0 is checked against.  A trajectory's
final state is compared later only where it is ``settled``: where a run at
100 times tighter tolerance lands on the same final plasmon number to
1e-9, so the value does not depend on the integrator's step choices.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spaserkit.cli import entry_point  # noqa: E402


def _run(workload, extra=()) -> dict:
    for cmd in workload.commands:
        code = entry_point([*cmd.argv, "--workers", str(workloads.WORKERS), *extra])
        if code != 0:
            raise SystemExit(f"{cmd.label} exited with code {code}")
    return checks.reference_record(workload)


def make(name: str, workdir: str) -> dict:
    workload = workloads.build(name, workloads.DEFAULT_SEED, workdir)
    record = _run(workload)
    if any(c.kind == "trajectory" for c in workload.commands):
        tight = _run(workload, ("--tol", "1e-8"))
        for label, entries in record.items():
            tight_final = {value: s["final_N_n"] for value, s in tight[label]}
            for value, summary in entries:
                summary["settled"] = (
                    abs(summary["final_N_n"] - tight_final[value])
                    <= 1e-9 * abs(tight_final[value])
                )
    return {"workload": name, "seed": workloads.DEFAULT_SEED, "tables": record}


def main() -> None:
    names = sys.argv[1:] or list(workloads.NAMES)
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    out = os.path.join(os.path.dirname(HERE), ".bench_out")
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=out)
    try:
        for name in names:
            data = make(name, workdir)
            path = os.path.join(checks.REFERENCE_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=0)
                handle.write("\n")
            print(f"wrote {os.path.relpath(path)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
