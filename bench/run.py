"""spaserkit benchmark: CLI workloads, end-to-end timings, a traced breakdown.

    python3 bench/run.py --workload sweep --seed 0 --seconds 50 --trace 0

Run from anywhere inside a source checkout: the package is imported from
the checkout's ``src`` directory and nowhere else.  Everything the
benchmark writes goes under ``.bench_out/`` at the checkout root.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``setup_s``: median wall time of a fresh interpreter that imports
  ``spaserkit.cli`` and parses the workload's config (every CLI call pays it);
* ``run_s``: median wall time of one iteration of the workload's commands
  with ``--workers 2``, after one warm-up iteration, in a fresh process;
* ``peak_rss_mb``: peak resident memory of that process or of its pool
  children, whichever is larger.

``--trace 1`` prints the per-layer metrics of traced iterations at
``--workers 1``, with the untraced iterations they are compared with (see
``loop.py``).  Every iteration's tables are checked (see ``checks.py``); a
failed check fails the run with exit code 1.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import tail  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
_SETUP_CODE = (
    "import sys\n"
    "import spaserkit.cli\n"
    "from spaserkit.config import parse_config\n"
    "parse_config(sys.argv[1], preset=sys.argv[2] or None)\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child in its own process group; a timer kills the whole group
    after ``timeout`` seconds.  The wait itself blocks without polling (a
    polling wait would round set-up times up to its 50 ms sleeps)."""
    with subprocess.Popen(cmd, env=_child_env(), start_new_session=True, text=True,
                          **kwargs) as proc:
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
        return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def spread(values) -> float:
    """Interquartile range over median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- environment ---------------------------------------------------------------


def _git_sha() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# -- measurements ----------------------------------------------------------------


def measure_setup(workload) -> list[float]:
    """Fresh-interpreter import + config parse, timed from outside."""
    cmd = workload.commands[0]
    argv = [sys.executable, "-c", _SETUP_CODE, cmd.config, cmd.preset or ""]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        proc = _run(argv, 60.0, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up interpreter failed")
    return samples


def import_shares() -> dict[str, float]:
    """``-X importtime`` self time of every module, charged to the package
    whose import pulled it in: numpy or scipy (with all they import) when
    spaserkit imports them, spaserkit otherwise.  Median of a few runs."""
    owners = ("spaserkit", "scipy", "numpy")
    runs = []
    for _ in range(IMPORT_SAMPLES):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import spaserkit.cli"],
                    60.0, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise RuntimeError("import-time interpreter failed")
        shares = dict.fromkeys(owners, 0.0)
        stack: list[tuple[int, str | None]] = []
        lines = [l for l in proc.stderr.splitlines() if l.startswith("import time:")][1:]
        for line in reversed(lines):  # output is post-order; reversed, parents come first
            head, _cumulative, name = line.split("|")
            depth = len(name) - len(name.lstrip())
            while stack and stack[-1][0] >= depth:
                stack.pop()
            root = name.strip().split(".")[0]
            parent = stack[-1][1] if stack else None
            owner = root if root in owners and parent in (None, "spaserkit") else parent
            stack.append((depth, owner))
            if owner is not None:
                shares[owner] += int(head.split(":", 1)[1]) * 1e-6
        runs.append(shares)
    return {f"import.{o}_s": statistics.median(r[o] for r in runs) for o in owners}


def run_loop(args, spans=None) -> dict:
    """Run the workload's closed loop (``loop.py``) in a fresh process."""
    result_path = os.path.join(args.workdir, "loop-result.json")
    cmd = [sys.executable, os.path.join(HERE, "loop.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", args.workdir, "--result", result_path]
    if spans is not None:
        cmd += ["--spans", spans]
    if args.smoke:
        cmd.append("--smoke")
    proc = _run(cmd, CHILD_TIMEOUT_S, stdout=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


# -- metrics -----------------------------------------------------------------------


def unit_of(name: str) -> str:
    if name == "dynamics.integrate.us_per_step":
        return "us"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), (".bytes", "B"),
                         ("_ratio", "1"), ("pool_efficiency", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def end_to_end(args, workload) -> tuple[dict, dict, dict]:
    setup = measure_setup(workload)
    loop = run_loop(args)
    iterations = loop["pooled"]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(iterations),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    n = len(iterations)
    # the highest percentile with at least ten iterations beyond it
    run_tail = (100 * (n - 10) // n, tail(iterations)) if n >= 11 else None
    report = {
        "setup_s_samples": setup,
        "setup_spread": spread(setup),
        "run_s_samples": iterations,
        "run_s_spread": spread(iterations),
        "run_s_tail": None if run_tail is None else {"percentile": run_tail[0],
                                                     "value": run_tail[1]},
        "failed_frac": loop["failed"] / loop["attempted"],
        "branch_mix": {"spasing": loop["spasing_rows"], "zero": loop["zero_rows"]},
    }
    print(f"setup_s      {metrics['setup_s']:.4f} s    median of {len(setup)}, "
          f"spread {report['setup_spread']:.1%}")
    tail_text = ("fewer than 11 samples, no tail" if run_tail is None
                 else f"p{run_tail[0]} {run_tail[1]:.4f} s")
    print(f"run_s        {metrics['run_s']:.4f} s    median of {len(iterations)} "
          f"iterations, {tail_text}, spread {report['run_s_spread']:.1%}")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_frac  {report['failed_frac']:.4g}    {loop['failed']} of "
          f"{loop['attempted']} operations")
    return metrics, report, loop


def per_layer(args, workload) -> tuple[dict, dict, dict]:
    spans = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}.spans.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    loop = run_loop(args, spans=spans)
    traced = loop["layer"]
    layer = {name: statistics.median(it[name] for it in traced) for name in traced[0]}
    metrics = import_shares()
    run_pooled = statistics.median(loop["pooled"])
    run_serial = statistics.median(loop["serial"])
    run_traced = statistics.median(loop["traced"])
    busy = layer.pop("_analysis_busy_s") * run_serial / run_traced
    metrics.update(layer)
    metrics["cli.pool_efficiency"] = busy / (workloads.WORKERS * run_pooled)
    metrics["bench.workers1_run_s"] = run_serial
    metrics["bench.traced_run_s"] = run_traced
    metrics["bench.tracing_overhead_s"] = run_traced - run_serial
    report = {
        "spans_file": os.path.relpath(spans, ROOT),
        "traced_iterations": len(traced),
        "serial_run_s_samples": loop["serial"],
        "traced_run_s_samples": loop["traced"],
        "run_s_pooled": run_pooled,
        "pool_efficiency_note": "traced analysis time, scaled by untraced/traced run_s "
                                "at --workers 1, over 2 x untraced run_s at --workers 2",
        "branch_mix": {
            "spasing": int(metrics["analysis.steady_state_numeric.spasing_calls"]),
            "zero": int(metrics["analysis.steady_state_numeric.calls"]
                        - metrics["analysis.steady_state_numeric.spasing_calls"]),
        },
    }
    width = max(len(n) for n in metrics)
    for name in sorted(metrics):
        print(f"{name:<{width}}  {metrics[name]:.6g} {unit_of(name)}")
    return metrics, report, loop


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short iteration on small grids (functional check)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "spaserkit", "cli.py")):
        print(f"error: no spaserkit sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    os.makedirs(OUT, exist_ok=True)
    args.workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.build(args.workload, args.seed, args.workdir, smoke=args.smoke)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"{workload.n_ops} operations per iteration")
        measure = per_layer if args.trace else end_to_end
        metrics, report, loop = measure(args, workload)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    problems = loop["problems"]
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, seconds=args.seconds, environment=env,
                  problems=problems, metrics=metrics)
    os.makedirs(os.path.join(OUT, "reports"), exist_ok=True)
    report_path = os.path.join(OUT, "reports",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"branch mix   {report['branch_mix']['spasing']} spasing / "
          f"{report['branch_mix']['zero']} zero rows")
    print(json.dumps({"environment": env}))
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
