"""Closed-loop runner for one workload, executed in a fresh interpreter.

One load-generating process calls ``spaserkit.cli.entry_point`` for each
command of the workload; an iteration starts only when the previous one
has finished.  Every iteration's tables are checked outside the timed
region.  After one warm-up iteration:

* ``--trace 0`` iterates at ``--workers 2`` for ``--seconds``;
* ``--trace 1`` iterates at ``--workers 2`` for a third of the budget, then
  alternates untraced and traced iterations at ``--workers 1`` for the
  rest, so the pairs that give the tracing overhead see the same machine.

    python3 bench/loop.py --workload sweep --seed 0 --seconds 25 --trace 0 \
        --workdir DIR --result out.json [--spans spans.jsonl] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import warnings
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _steady_expectations(workload) -> dict[float, float]:
    """On ``stiff``, the steady state each trajectory must settle onto
    (smoke runs stop long before the trajectories settle)."""
    if workload.name != "stiff" or workload.smoke:
        return {}
    from spaserkit.analysis import steady_state_numeric
    from spaserkit.config import parse_config
    from spaserkit.params import set_param

    cmd = workload.commands[0]
    model = parse_config(cmd.config).model
    return {
        value: float(steady_state_numeric(set_param(model, cmd.axis_path, value)).n_n)
        for value in cmd.axis_values
    }


class Runner:
    def __init__(self, workload, checker):
        import spaserkit.cli

        self.cli = spaserkit.cli
        self.workload = workload
        self.checker = checker
        self.totals = {"attempted": 0, "failed": 0, "problems": [],
                       "spasing_rows": 0, "zero_rows": 0}

    def iterate(self, workers: int) -> float:
        flag = ["--workers", str(workers)]
        start = perf_counter()
        codes = [self.cli.entry_point([*c.argv, *flag]) for c in self.workload.commands]
        elapsed = perf_counter() - start
        verdict = self.checker.check(codes)
        self.totals["attempted"] += self.workload.n_ops
        self.totals["failed"] += verdict.failed
        self.totals["problems"].extend(verdict.problems)
        self.totals["spasing_rows"] = verdict.spasing_rows
        self.totals["zero_rows"] = verdict.zero_rows
        return elapsed

    def traced(self, tracer, spans, index: int) -> tuple[float, dict]:
        """One traced iteration at ``--workers 1``: its time and layer metrics."""
        tracer.reset()
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                elapsed = self.iterate(1)
        finally:
            tracer.uninstall()
        counts: dict[str, int] = {}
        for w in caught:
            counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
        tracer.write_spans(spans, index)
        return elapsed, tracing.iteration_metrics(tracer, counts)


def _repeat(step, seconds: float, smoke: bool) -> None:
    """Call ``step()`` (which returns its own duration) for about
    ``seconds``: another call starts only if it would end by the budget,
    give or take half a call.  At least once; exactly once when ``smoke``."""
    budget_end = perf_counter() + seconds
    last = step()
    while not smoke and perf_counter() + 0.5 * last < budget_end:
        last = step()


def run(args) -> dict:
    import spaserkit

    package = os.path.dirname(os.path.abspath(spaserkit.__file__))
    if os.path.dirname(package) != SRC:
        raise SystemExit(f"spaserkit was imported from {package}, not from {SRC}")

    workload = workloads.build(args.workload, args.seed, args.workdir, smoke=args.smoke)
    runner = Runner(workload, checks.Checker(workload, _steady_expectations(workload)))
    runner.iterate(workloads.WORKERS)  # warm-up: lazy imports, first-call costs, page cache
    out: dict[str, list] = {"pooled": [], "serial": [], "traced": [], "layer": []}

    def pooled() -> float:
        out["pooled"].append(runner.iterate(workloads.WORKERS))
        return out["pooled"][-1]

    if not args.trace:
        _repeat(pooled, args.seconds, args.smoke)
    else:
        _repeat(pooled, args.seconds / 3.0, args.smoke)
        tracer = tracing.Tracer()
        with open(args.spans, "w", encoding="utf-8") as spans:

            def pair() -> float:
                out["serial"].append(runner.iterate(1))
                elapsed, layer = runner.traced(tracer, spans, len(out["traced"]))
                out["traced"].append(elapsed)
                out["layer"].append(layer)
                return out["serial"][-1] + elapsed

            _repeat(pair, 2.0 * args.seconds / 3.0, args.smoke)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        **runner.totals,
        **out,
        "peak_rss_mb": max(own, children) / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="span file of the traced iterations (JSON lines)")
    parser.add_argument("--smoke", action="store_true",
                        help="small grids, one iteration per loop")
    args = parser.parse_args()
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
