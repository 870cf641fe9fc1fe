"""Summarise the reports the benchmark wrote under ``.bench_out/reports/``.

    python3 bench/summary.py [REPORT_DIR]

Prints one column per workload: the end-to-end metrics of the latest
``--trace 0`` report, every per-layer metric of the latest ``--trace 1``
report, the self time of each layer as a share of the traced iteration,
and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFAULT_DIR = os.path.join(os.path.dirname(HERE), ".bench_out", "reports")


def load(report_dir: str) -> dict[tuple[str, int], dict]:
    """Latest report per (workload, trace flag)."""
    latest: dict[tuple[str, int], tuple[float, dict]] = {}
    for entry in os.scandir(report_dir):
        if not entry.name.endswith(".json"):
            continue
        with open(entry.path, encoding="utf-8") as handle:
            report = json.load(handle)
        if report["smoke"]:
            continue
        key = (report["workload"], report["trace"])
        if key not in latest or entry.stat().st_mtime > latest[key][0]:
            latest[key] = (entry.stat().st_mtime, report)
    return {key: report for key, (_, report) in latest.items()}


def layer_self_shares(metrics: dict) -> dict[str, float]:
    """Summed ``.self_s`` per layer over the traced iteration's wall time."""
    shares: dict[str, float] = defaultdict(float)
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            shares[name.split(".")[0]] += value
    total = metrics.get("bench.traced_run_s") or 1.0
    return {layer: value / total for layer, value in shares.items()}


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def main() -> None:
    report_dir = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_DIR
    reports = load(report_dir)
    names = [n for n in workloads.NAMES if (n, 0) in reports or (n, 1) in reports]
    rows: list[tuple[str, list]] = []
    for trace, title in ((0, "end to end (untraced, --workers 2)"),
                         (1, "per layer (traced, --workers 1)")):
        metric_names = sorted({m for n in names for m in reports.get((n, trace), {})
                               .get("metrics", {})})
        rows.append((f"== {title}", []))
        for metric in metric_names:
            rows.append((metric, [reports.get((n, trace), {}).get("metrics", {}).get(metric)
                                  for n in names]))
    rows.append(("== layer self time / traced run_s", []))
    shares = {n: layer_self_shares(reports[(n, 1)]["metrics"]) for n in names if (n, 1) in reports}
    for layer in sorted({layer for s in shares.values() for layer in s}):
        rows.append((f"{layer} self share", [shares.get(n, {}).get(layer) for n in names]))
    rows.append(("seed", [reports.get((n, 1), reports.get((n, 0)))["seed"] for n in names]))

    width = max(len(label) for label, _ in rows)
    print(" " * width + "".join(f"{n:>14}" for n in names))
    for label, values in rows:
        print(f"{label:<{width}}" + "".join(f"{_fmt(v):>14}" for v in values))


if __name__ == "__main__":
    main()
