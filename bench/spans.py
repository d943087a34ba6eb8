"""In-process tracing of ``actisleep`` by wrapping its public functions.

Each wrapper replaces a public function at the name its caller looks up
(``actisleep.cli.read_epoch_csv``, ``actisleep.hmm.baum_welch``, ...), so
nothing in ``src/`` changes and no private name is touched.  A span
records its name, start, end, parent span and operation id; spans are
kept in memory.  A layer's self time is its span's duration minus its
child spans.  In memory mode the spans record their ``tracemalloc`` peak
above the traced memory at entry instead of being timed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module, public name the caller looks up, span name)
WRAPS = (
    ("actisleep.cli", "read_epoch_csv", "series.read_epoch_csv"),
    ("actisleep.cli", "write_label_csv", "series.write_label_csv"),
    ("actisleep.cli", "write_epoch_csv", "series.write_epoch_csv"),
    ("actisleep.cli", "read_label_csv", "series.read_label_csv"),
    ("actisleep.cli", "log_transform", "series.log_transform"),
    ("actisleep.hmm", "default_init", "hmm.default_init"),
    ("actisleep.hmm", "baum_welch", "hmm.baum_welch"),
    ("actisleep.hmm", "viterbi", "hmm.viterbi"),
    ("actisleep.hmm", "read_params", "hmm.read_params"),
    ("actisleep.hmm", "fit_sleep_weighted", "emissions.fit_sleep_weighted"),
    ("actisleep.hmm", "fit_wake_weighted", "emissions.fit_wake_weighted"),
    ("actisleep.hmm", "sleep_log_emission", "emissions.log_emission"),
    ("actisleep.hmm", "wake_log_emission", "emissions.log_emission"),
    ("actisleep.postprocess", "smooth", "postprocess.smooth"),
    ("actisleep.cli", "simulate", "simulate.simulate"),
    ("actisleep.cli", "as_score", "actiwatch.as_score"),
    ("actisleep.metrics", "confusion", "metrics.compare"),
    ("actisleep.metrics", "epoch_metrics", "metrics.compare"),
    ("actisleep.metrics", "sleep_variables", "metrics.compare"),
)
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in WRAPS))
PEAK_SPANS = (
    "hmm.baum_welch",
    "hmm.viterbi",
    "series.read_epoch_csv",
    "postprocess.smooth",
    "simulate.simulate",
)

# Per-layer metric -> (end-to-end metric it should move, workload where it
# should move it most).
TARGETS = {
    "cli.interpreter_ms": ("latency_p50_ms", "night-score"),
    "cli.import_ms": ("latency_p50_ms", "night-score"),
    "cli.op_ms": ("latency_p50_ms", "every workload"),
    "cli.op_untraced_ms": ("latency_p50_ms", "every workload"),
    "cli.other_ms": ("latency_p50_ms", "night-score"),
    "trace.overhead_pct": ("none; tracing cost", "every workload"),
    "series.read_epoch_csv_ms": ("epochs_per_s", "long-decode"),
    "series.write_label_csv_ms": ("epochs_per_s", "long-decode"),
    "series.write_epoch_csv_ms": ("epochs_per_s", "simulate-validate"),
    "series.read_label_csv_ms": ("epochs_per_s", "simulate-validate"),
    "series.log_transform_ms": ("none; expected about 0", "every workload"),
    "hmm.default_init_ms": ("epochs_per_s", "week-score"),
    "hmm.baum_welch_ms": ("epochs_per_s", "week-score"),
    "hmm.baum_welch_self_ms": ("epochs_per_s", "week-score"),
    "hmm.em_iterations": ("epochs_per_s", "week-score"),
    "hmm.em_pass_ms": ("epochs_per_s", "week-score"),
    "hmm.viterbi_ms": ("epochs_per_s", "long-decode"),
    "hmm.read_params_ms": ("none; expected about 0", "long-decode"),
    "emissions.fit_sleep_weighted_ms": ("latency_p50_ms", "night-score"),
    "emissions.fit_sleep_weighted_calls": ("latency_p50_ms", "night-score"),
    "emissions.fit_wake_weighted_ms": ("latency_p50_ms", "night-score"),
    "emissions.log_emission_ms": ("none; expected negligible", "week-score"),
    "emissions.log_emission_calls": ("none; expected negligible", "week-score"),
    "postprocess.smooth_ms": ("epochs_per_s", "long-decode"),
    "postprocess.runs_in": ("epochs_per_s", "long-decode"),
    "postprocess.runs_out": ("epochs_per_s", "long-decode"),
    "simulate.simulate_ms": ("epochs_per_s", "simulate-validate"),
    "actiwatch.as_score_ms": ("epochs_per_s", "simulate-validate"),
    "metrics.compare_ms": ("epochs_per_s", "simulate-validate"),
    "hmm.baum_welch_peak_mb": ("peak_rss_mb", "week-score"),
    "hmm.viterbi_peak_mb": ("peak_rss_mb", "long-decode"),
    "series.read_epoch_csv_peak_mb": ("peak_rss_mb", "long-decode"),
    "postprocess.smooth_peak_mb": ("peak_rss_mb", "long-decode"),
    "simulate.simulate_peak_mb": ("peak_rss_mb", "simulate-validate"),
}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0
    base_bytes: int = 0  # memory mode: traced memory at entry
    peak_bytes: int = 0  # memory mode: traced peak while open


def _numbers(obj):
    """Every number held by a (nested) dataclass of floats and arrays."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))
    elif isinstance(obj, (int, float, np.number, np.ndarray)):
        yield from np.ravel(np.asarray(obj, dtype=np.float64)).tolist()


def _runs(states) -> int:
    s = np.asarray(states.states)
    return int(1 + np.count_nonzero(s[1:] != s[:-1]))


class Tracer:
    """Spans and counts of the traced operations, held in memory."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)  # (op, name) -> count
        self.problems: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, parent, 0.0)
        if self.memory:
            if parent is not None:
                outer = self.spans[parent]
                outer.peak_bytes = max(outer.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            span.base_bytes = span.peak_bytes = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = perf_counter()
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                outer = self.spans[span.parent]
                outer.peak_bytes = max(outer.peak_bytes, span.peak_bytes)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def count(self, name: str, value: float) -> None:
        self.counts[(self.op, name)] += value


def _baum_welch_hook(tracer: Tracer, args, report) -> None:
    tracer.count("hmm.em_iterations", report.iterations)
    trace = report.log_likelihood_trace
    worst = min(np.diff(trace), default=0.0)
    if worst < -1e-9:
        tracer.problems.append(f"log-likelihood trace fell by {-worst:.3g}")
    if not all(math.isfinite(v) for v in _numbers(report.params)):
        tracer.problems.append("fitted parameters are not all finite")


def _smooth_hook(tracer: Tracer, args, result) -> None:
    tracer.count("postprocess.runs_in", _runs(args[0]))
    tracer.count("postprocess.runs_out", _runs(result))


HOOKS = {"hmm.baum_welch": _baum_welch_hook, "postprocess.smooth": _smooth_hook}


def install(tracer: Tracer) -> list:
    """Wrap every traced public function; returns what ``restore`` needs."""
    saved = []
    for module_name, attr, span in WRAPS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {module_name}.{attr} not found; {span} not traced", file=sys.stderr)
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(span, fn, HOOKS.get(span)))
    return saved


def restore(saved: list) -> None:
    for module, attr, fn in saved:
        setattr(module, attr, fn)


def layer_times(tracer: Tracer, op_seconds: list) -> tuple[dict, dict]:
    """Per-operation means of each span's total and self time, calls, counts.

    Returns ``(metrics, self_ms)``: the per-layer metrics the spans give,
    and each span name's mean self time per operation in ms, whose sum
    plus ``cli.other_ms`` is the mean in-process operation time.
    """
    n_ops = len(op_seconds)
    total = defaultdict(float)  # (op, name) -> seconds
    own = defaultdict(float)
    calls = defaultdict(int)
    root = defaultdict(float)  # op -> seconds inside top-level spans
    for span in tracer.spans:
        d = span.end - span.start
        total[(span.op, span.name)] += d
        own[(span.op, span.name)] += d
        calls[(span.op, span.name)] += 1
        if span.parent is None:
            root[span.op] += d
        else:
            parent = tracer.spans[span.parent]
            own[(parent.op, parent.name)] -= d

    def mean(table, name, scale=1.0):
        return scale * sum(table[(op, name)] for op in range(n_ops)) / n_ops

    m = {f"{name}_ms": mean(total, name, 1e3) for name in SPAN_NAMES}
    m["hmm.baum_welch_self_ms"] = mean(own, "hmm.baum_welch", 1e3)
    for name in ("emissions.fit_sleep_weighted", "emissions.log_emission"):
        m[f"{name}_calls"] = mean(calls, name)
    for name in ("hmm.em_iterations", "postprocess.runs_in", "postprocess.runs_out"):
        m[name] = mean(tracer.counts, name)
    passes = [
        total[(op, "hmm.baum_welch")] / (tracer.counts[(op, "hmm.em_iterations")] + 1)
        for op in range(n_ops)
        if calls[(op, "hmm.baum_welch")]
    ]
    m["hmm.em_pass_ms"] = 1e3 * sum(passes) / len(passes) if passes else 0.0
    m["cli.op_ms"] = 1e3 * sum(op_seconds) / n_ops
    m["cli.other_ms"] = 1e3 * sum(op_seconds[op] - root[op] for op in range(n_ops)) / n_ops
    self_ms = {name: mean(own, name, 1e3) for name in SPAN_NAMES}
    return m, self_ms


def layer_peaks(tracer: Tracer) -> dict:
    """Largest traced-memory rise above entry of each ``PEAK_SPANS`` span, MB."""
    peaks = dict.fromkeys(PEAK_SPANS, 0.0)
    for span in tracer.spans:
        if span.name in peaks:
            rise = (span.peak_bytes - span.base_bytes) / 2**20
            peaks[span.name] = max(peaks[span.name], rise)
    return {f"{name}_peak_mb": value for name, value in peaks.items()}
