"""In-process tracing of spaserkit's public functions, from outside the package.

The tracer replaces public functions on their module attributes, and on
every alias other spaserkit modules imported (``cli`` imports
``steady_state_numeric`` from ``analysis``, for instance), with timing
wrappers.  Functions at or above the per-point level get a full span
(name, start, end, parent span, request id); the high-frequency ones get
only a call counter and summed time, because a span per call made the
onset workload half again slower.

Self time is a call's duration minus the time spent in the instrumented
calls it made (spans and counted calls alike), so the self times of one
iteration add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "config", "tables", "analysis", "dynamics", "params")

SPANNED = (
    "cli.entry_point",
    "config.parse_config",
    "tables.write_table",
    "analysis.threshold_find",
    "analysis.calibrate_coupling",
    "analysis.steady_state_numeric",
    "analysis.spasing_frequency",
    "analysis.growth_rate",
    "analysis.weak_field_background",
    "dynamics.integrate",
)
COUNTED = (
    "analysis.spasing_condition_residual",
    "analysis.steady_inversions_closed_form",
    "params.complex_rates",
    "params.set_param",
    "dynamics.equations_of_motion",
)
WARNINGS = ("CrossCheckWarning", "RuntimeWarning", "RegimeWarning", "BookkeepingWarning")

# The span that stands for one grid point / axis value of each command.
_POINT_SPAN = {
    "steady-sweep": "analysis.steady_state_numeric",
    "threshold": "analysis.threshold_find",
    "trajectory": "dynamics.integrate",
    "calibrate": "analysis.calibrate_coupling",
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "self_s", "parent", "request", "attrs")

    def __init__(self, sid, name, start, parent, request):
        self.sid, self.name, self.start, self.parent, self.request = (
            sid, name, start, parent, request)
        self.end = start
        self.self_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, **self.attrs,
        }


def _attrs(name: str, args, kwargs, result) -> dict:
    """Facts a span keeps from its public arguments and result."""
    if name == "dynamics.integrate":
        return {"accepted": result.n_accepted, "rejected": result.n_rejected,
                "rhs_evals": result.n_rhs_evals}
    if name == "analysis.steady_state_numeric":
        return {"method": result.method, "branch": result.branch}
    if name == "analysis.threshold_find":
        return {"cross_check": kwargs.get("cross_check", True),
                "growth_root": result.g_th_growth is not None}
    if name == "tables.write_table":
        return {"rows": len(args[0].rows), "bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Collects spans and counters for one traced iteration at a time."""

    def __init__(self) -> None:
        self._restore: list[tuple] = []
        self.counters = {name: [0, 0.0, 0.0] for name in COUNTED}  # calls, total, self
        self._child = [0.0]  # time spent in instrumented callees, per open call
        self.reset()

    def reset(self) -> None:
        """Start a new iteration.  The counter lists and the callee-time
        stack are cleared in place: the installed wrappers hold them."""
        self.spans: list[Span] = []
        for stat in self.counters.values():
            stat[:] = [0, 0.0, 0.0]
        self._child[:] = [0.0]
        self._open: list[Span | None] = [None]
        self._command = None
        self._points = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"spaserkit.{m}") for m in MODULES}
        for qual in SPANNED + COUNTED:
            layer, func = qual.split(".")
            original = getattr(modules[layer], func)
            if qual in SPANNED:
                wrapper = self._span_wrapper(qual, original)
            else:
                wrapper = self._counter_wrapper(qual, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _counter_wrapper(self, qual, fn):
        child = self._child
        stat = self.counters[qual]

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = child.pop()
                child[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - inner

        return wrapper

    def _span_wrapper(self, qual, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open_span(qual, args, kwargs)
            residuals = tracer.counters["analysis.spasing_condition_residual"][0]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close_span(span)
                span.attrs["error"] = type(exc).__name__
                raise
            tracer._close_span(span)
            span.attrs.update(_attrs(qual, args, kwargs, result))
            if qual == "analysis.spasing_frequency":
                span.attrs["residual_evals"] = (
                    tracer.counters["analysis.spasing_condition_residual"][0] - residuals)
            return result

        return wrapper

    def _open_span(self, name, args, kwargs) -> Span:
        parent = self._open[-1]
        if name == "cli.entry_point":
            argv = args[0] if args else kwargs.get("argv")
            self._command = argv[0] if argv else None
            self._points = 0
            request = self._command
        elif parent is not None and parent.name == "cli.entry_point" and name.startswith(
            ("analysis.", "dynamics.")
        ):
            request = f"{self._command}#{self._points}"
        else:
            request = None if parent is None else parent.request
        span = Span(len(self.spans), name, 0.0, None if parent is None else parent.sid, request)
        self.spans.append(span)
        self._open.append(span)
        self._child.append(0.0)
        span.start = perf_counter()
        return span

    def _close_span(self, span: Span) -> None:
        span.end = perf_counter()
        inner = self._child.pop()
        self._open.pop()
        self._child[-1] += span.duration
        span.self_s = span.duration - inner
        parent = self._open[-1]
        if (parent is not None and parent.name == "cli.entry_point"
                and _POINT_SPAN.get(self._command) == span.name):
            self._points += 1

    def write_spans(self, handle, iteration: int) -> None:
        for span in self.spans:
            handle.write(json.dumps({"iteration": iteration, **span.as_dict()}) + "\n")


# -- per-layer metrics --------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> float:
    """The highest order statistic with ten samples above it (the largest
    sample when there are fewer than eleven)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def iteration_metrics(tracer: Tracer, warning_counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (everything except the
    import shares and the figures that need untraced iterations)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    spans_by_id = {s.sid: s for s in tracer.spans}

    def self_s(name):
        return sum(s.self_s for s in by_name[name])

    def durations(name):
        return [s.duration for s in by_name[name]]

    m: dict[str, float] = {}
    m["config.parse_config.self_s"] = self_s("config.parse_config")
    m["cli.entry_point.self_s"] = self_s("cli.entry_point")
    m["cli.points"] = sum(
        1 for s in tracer.spans
        if s.parent is not None and spans_by_id[s.parent].name == "cli.entry_point"
        and s.name == _POINT_SPAN.get(spans_by_id[s.parent].request)
    )
    writes = by_name["tables.write_table"]
    m["tables.write_table.self_s"] = self_s("tables.write_table")
    m["tables.write_table.rows"] = sum(s.attrs.get("rows", 0) for s in writes)
    m["tables.write_table.bytes"] = sum(s.attrs.get("bytes", 0) for s in writes)
    for name in COUNTED:
        calls, _total, own = tracer.counters[name]
        m[f"{name}.calls"] = calls
        if name != "dynamics.equations_of_motion":
            m[f"{name}.self_s"] = own

    freq = by_name["analysis.spasing_frequency"]
    m["analysis.spasing_frequency.calls"] = len(freq)
    m["analysis.spasing_frequency.self_s"] = self_s("analysis.spasing_frequency")
    m["analysis.spasing_frequency.p50_us"] = 1e6 * _median(durations("analysis.spasing_frequency"))
    m["analysis.spasing_frequency.residual_evals_per_call"] = _ratio(
        sum(s.attrs.get("residual_evals", 0) for s in freq), len(freq))

    th = by_name["analysis.threshold_find"]
    checked = [s for s in th if s.attrs.get("cross_check")]
    m["analysis.threshold_find.calls"] = len(th)
    m["analysis.threshold_find.self_s"] = self_s("analysis.threshold_find")
    m["analysis.threshold_find.p50_ms"] = 1e3 * _median(durations("analysis.threshold_find"))
    m["analysis.threshold_find.tail_ms"] = 1e3 * tail(durations("analysis.threshold_find"))
    m["analysis.threshold_find.crosscheck_ratio"] = _ratio(
        sum(1 for s in checked if s.attrs.get("growth_root")), len(checked))

    cal_ids = {s.sid for s in by_name["analysis.calibrate_coupling"]}
    m["analysis.calibrate_coupling.self_s"] = self_s("analysis.calibrate_coupling")
    m["analysis.calibrate_coupling.threshold_calls"] = sum(1 for s in th if s.parent in cal_ids)

    ss = by_name["analysis.steady_state_numeric"]
    m["analysis.steady_state_numeric.calls"] = len(ss)
    m["analysis.steady_state_numeric.self_s"] = self_s("analysis.steady_state_numeric")
    m["analysis.steady_state_numeric.p50_ms"] = 1e3 * _median(durations("analysis.steady_state_numeric"))
    m["analysis.steady_state_numeric.tail_ms"] = 1e3 * tail(durations("analysis.steady_state_numeric"))
    m["analysis.steady_state_numeric.algebraic_ratio"] = _ratio(
        sum(1 for s in ss if s.attrs.get("method") == "algebraic-root"), len(ss))
    m["analysis.steady_state_numeric.fallback_calls"] = sum(
        1 for s in ss if s.attrs.get("method") == "ode-relaxation")
    m["analysis.steady_state_numeric.spasing_calls"] = sum(
        1 for s in ss if s.attrs.get("branch") == "spasing")

    m["analysis.growth_rate.calls"] = len(by_name["analysis.growth_rate"])
    m["analysis.growth_rate.self_s"] = self_s("analysis.growth_rate")
    m["analysis.growth_rate.p50_us"] = 1e6 * _median(durations("analysis.growth_rate"))
    m["analysis.weak_field_background.calls"] = len(by_name["analysis.weak_field_background"])
    m["analysis.weak_field_background.self_s"] = self_s("analysis.weak_field_background")
    for category in WARNINGS:
        m[f"analysis.warnings.{category}"] = warning_counts.get(category, 0)

    integ = by_name["dynamics.integrate"]
    accepted = sum(s.attrs.get("accepted", 0) for s in integ)
    rejected = sum(s.attrs.get("rejected", 0) for s in integ)
    rhs = sum(s.attrs.get("rhs_evals", 0) for s in integ)
    steps = accepted + rejected
    m["dynamics.integrate.calls"] = len(integ)
    m["dynamics.integrate.self_s"] = self_s("dynamics.integrate")
    m["dynamics.integrate.steps_accepted"] = accepted
    m["dynamics.integrate.steps_rejected"] = rejected
    m["dynamics.integrate.accept_ratio"] = _ratio(accepted, steps)
    m["dynamics.integrate.rhs_evals"] = rhs
    m["dynamics.integrate.rhs_evals_per_step"] = _ratio(rhs, steps)
    m["dynamics.integrate.us_per_step"] = 1e6 * _ratio(m["dynamics.integrate.self_s"], steps)

    # Inclusive time of the analysis calls the CLI hands out per grid point:
    # the serial work a process pool can share.
    m["_analysis_busy_s"] = sum(
        s.duration for s in tracer.spans
        if s.name.startswith("analysis.") and s.parent is not None
        and spans_by_id[s.parent].name == "cli.entry_point"
    )
    return m
