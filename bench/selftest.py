"""Self-test of the benchmark harness (not of spaserkit's numbers).

    python3 bench/selftest.py

Runs every workload in smoke mode (one short iteration on small grids),
untraced and traced, and checks that the result line keeps its schema and
names every metric the benchmark promises.  It also checks that the
reference comparison catches a tampered value and that the benchmark
refuses to run without the package sources.  Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
PER_LAYER = (
    "import.spaserkit_s", "import.scipy_s", "import.numpy_s",
    "config.parse_config.self_s",
    "cli.entry_point.self_s", "cli.points", "cli.pool_efficiency",
    "tables.write_table.self_s", "tables.write_table.rows", "tables.write_table.bytes",
    "params.complex_rates.calls", "params.complex_rates.self_s",
    "params.set_param.calls", "params.set_param.self_s",
    "analysis.spasing_frequency.calls", "analysis.spasing_frequency.self_s",
    "analysis.spasing_frequency.p50_us", "analysis.spasing_frequency.residual_evals_per_call",
    "analysis.spasing_condition_residual.calls", "analysis.spasing_condition_residual.self_s",
    "analysis.steady_inversions_closed_form.calls",
    "analysis.steady_inversions_closed_form.self_s",
    "analysis.threshold_find.calls", "analysis.threshold_find.self_s",
    "analysis.threshold_find.p50_ms", "analysis.threshold_find.tail_ms",
    "analysis.threshold_find.crosscheck_ratio",
    "analysis.calibrate_coupling.self_s", "analysis.calibrate_coupling.threshold_calls",
    "analysis.steady_state_numeric.calls", "analysis.steady_state_numeric.self_s",
    "analysis.steady_state_numeric.p50_ms", "analysis.steady_state_numeric.tail_ms",
    "analysis.steady_state_numeric.algebraic_ratio",
    "analysis.steady_state_numeric.fallback_calls",
    "analysis.steady_state_numeric.spasing_calls",
    "analysis.growth_rate.calls", "analysis.growth_rate.self_s", "analysis.growth_rate.p50_us",
    "analysis.weak_field_background.calls", "analysis.weak_field_background.self_s",
    "analysis.warnings.CrossCheckWarning", "analysis.warnings.RuntimeWarning",
    "analysis.warnings.RegimeWarning", "analysis.warnings.BookkeepingWarning",
    "dynamics.integrate.calls", "dynamics.integrate.self_s",
    "dynamics.integrate.steps_accepted", "dynamics.integrate.steps_rejected",
    "dynamics.integrate.accept_ratio", "dynamics.integrate.rhs_evals",
    "dynamics.integrate.rhs_evals_per_step", "dynamics.integrate.us_per_step",
    "dynamics.equations_of_motion.calls",
    "bench.tracing_overhead_s", "bench.workers1_run_s", "bench.traced_run_s",
)


def _declared() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _run_bench(argv, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result_line(stdout: str, declared: dict[str, str], required) -> None:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(declared), set(metrics) ^ set(declared)
    assert set(required) <= set(metrics), set(required) - set(metrics)
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}, (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name
        assert entry["unit"] == declared[name], (name, entry["unit"], declared[name])


def test_smoke_runs() -> None:
    declared = _declared()
    for name in workloads.NAMES:
        for trace, kind, required in ((0, "end_to_end", END_TO_END),
                                      (1, "per_layer", PER_LAYER)):
            proc = _run_bench(["--workload", name, "--seed", "3", "--seconds", "1",
                               "--trace", str(trace), "--smoke"])
            assert proc.returncode == 0, proc.stdout + proc.stderr
            check_result_line(proc.stdout, declared[kind], required)
            print(f"ok  smoke {name} --trace {trace}")


def test_reference_check_catches_a_tampered_value() -> None:
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        workload = workloads.build("sweep", workloads.DEFAULT_SEED, workdir)
        reference = checks.load_reference("sweep")["tables"]

        def write_tables(scale: float) -> list[int]:
            for cmd in workload.commands:
                table = reference[cmd.label]
                rows = [list(r) for r in table["rows"]]
                rows[-1][table["columns"].index("N_n")] *= scale
                with open(cmd.out, "w", encoding="utf-8") as handle:
                    handle.write("# metadata line\n" + ",".join(f"{c} (u)" for c in table["columns"]) + "\n")
                    handle.writelines(",".join(repr(v) for v in row) + "\n" for row in rows)
            return [0] * len(workload.commands)

        checker = checks.Checker(workload)
        assert not checker.check(write_tables(1.0)).problems
        assert checker.check(write_tables(1.0 + 1e-5)).problems
        print("ok  reference comparison flags a 1e-5 change in N_n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_without_sources() -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_bench(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
        print("ok  refuses to run without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    test_reference_check_catches_a_tampered_value()
    test_refuses_without_sources()
    test_smoke_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()
