"""The actisleep benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload night-score --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is the ``actisleep``
package under ``src/``, used as it stands.  Inputs come from ``--seed``
alone and are written under ``.bench_work/``, which the run removes.

``--trace 0`` (end to end): each operation runs ``python -m actisleep.cli``
as a child process, one at a time, in a closed loop with one client, for
``--seconds`` seconds.  Set-up (input generation plus one untimed warm-up
operation on a 2,880-epoch input) is repeated and its median reported.

Times are host-normalised.  The CPU speed of a small shared host drifts by
20 % or more over minutes, which moves every wall time with it.  So a
fixed reference task that does not use ``actisleep`` (``REFERENCE_CODE``)
runs as a child before each operation and after the last, and the run's
times are scaled by ``REFERENCE_S`` over the reference's median: they
read as wall times on a host where the reference takes ``REFERENCE_S``.
The raw values and the scale go to stderr.

``--trace 1`` (per layer): a start-up probe times bare interpreter and
``import actisleep.cli`` children; then the same operations run in
process through ``actisleep.cli.main``, alternately untraced and traced
(``spans``), and one more under ``tracemalloc`` for layer peak memory.
The spans are written to ``.bench_work/`` when the run ends.

Every timed or traced operation's output is checked.  Progress and a
readable summary go to stderr; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` declares for the mode.  Exits 2, printing no result, when ``src/actisleep`` is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS, CheckFailed, Op, Prepared

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 120

# The reference task: interpreter start, the imports actisleep makes, then
# small numpy products, frozen-dataclass list work and string formatting,
# like an operation's mix of start-up and per-epoch Python work.
REFERENCE_CODE = """
from dataclasses import dataclass
import numpy as np, scipy.optimize, scipy.special
@dataclass(frozen=True)
class Run:
    state: int
    length: int
x, a = np.zeros(2), np.array([[0.9, 0.1], [0.2, 0.8]])
for _ in range(60000):
    x = (x @ a) * 0.5 + 1.0
runs = [Run(i % 2, i) for i in range(3000)]
for _ in range(60):
    i = runs.index(min((r for r in runs if r.length < 2000), key=lambda r: r.length))
    runs[i] = Run(runs[i].state, runs[i].length + 1)
lines = [f"{i},{'S' if i % 3 else 'W'}" for i in range(200000)]
"""
REFERENCE_S = 0.9  # about its median wall time on the host of bench/baseline.json


@dataclass
class Tally:
    """Operations of one loop: counts, latencies, and what checks returned."""

    attempted: int = 0
    failed: int = 0
    epochs_done: int = 0
    peak_rss_mb: float = 0.0  # largest of any operation's child process
    seconds: list = field(default_factory=list)
    reference: list = field(default_factory=list)  # REFERENCE_CODE wall times
    accuracy: dict = field(default_factory=dict)  # one entry per distinct op
    epochs: list = field(default_factory=list)
    zero_share: list = field(default_factory=list)
    runs_per_1000: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def record(self, op: Op, seconds: float, error: str | None) -> None:
        """Count one operation; ``error`` (or a failed check) marks it failed."""
        self.seconds.append(seconds)
        if error is None:
            try:
                out = op.check()
            except (CheckFailed, OSError) as exc:
                error = str(exc)
        if error is not None:
            self.fail(error)
            return
        self.attempted += 1
        self.epochs_done += op.epochs
        self.accuracy[id(op)] = out.accuracy
        self.epochs.append(op.epochs)
        self.zero_share.append(float((out.counts == 0).mean()))
        runs = 1 + int((out.truth[1:] != out.truth[:-1]).sum())
        self.runs_per_1000.append(1000.0 * runs / op.epochs)

    def fail(self, error: str) -> None:
        """Count one failed operation or check."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)
        print(f"FAILED: {error}", file=sys.stderr)

    def properties(self) -> dict:
        """The input properties cost depends on, over the checked operations."""
        return {
            "epochs_per_recording": _mean(self.epochs),
            "zero_count_share": _mean(self.zero_share),
            "true_runs_per_1000_epochs": _mean(self.runs_per_1000),
        }


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list, env: dict) -> tuple[int, str, float]:
    """Run ``python <args>`` to the end: exit code, stderr tail, peak RSS in MB.

    The child is reaped with ``os.wait4`` for its own resource usage, and
    killed if it outlives ``CHILD_TIMEOUT_S``.
    """
    with tempfile.TemporaryFile(dir=WORK) as err:
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
        )
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode(errors="replace").strip()[-300:]
    if killed.is_set():
        tail = f"killed after {CHILD_TIMEOUT_S} s"
    return code, tail, usage.ru_maxrss / 1024


def run_op_child(op: Op, env: dict, tally: "Tally") -> tuple[float, str | None]:
    """Wall time of one operation as child processes, and its error if any."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    start = perf_counter()
    error = None
    for argv in op.argvs:
        code, tail, rss_mb = run_child(["-m", "actisleep.cli", *argv], env)
        tally.peak_rss_mb = max(tally.peak_rss_mb, rss_mb)
        if code != 0:
            error = f"{argv[0]} exited {code}: {tail}"
            break
    return perf_counter() - start, error


def reference_seconds(env: dict) -> float:
    start = perf_counter()
    code, tail, _ = run_child(["-c", REFERENCE_CODE], env)
    if code != 0:
        raise RuntimeError(f"the reference task failed: {tail}")
    return perf_counter() - start


def run_op_inprocess(op: Op, main) -> tuple[float, str | None]:
    """Wall time of one operation through ``actisleep.cli.main``."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    gc.collect()  # so one operation's garbage is not collected inside the next
    start = perf_counter()
    error = None
    with contextlib.redirect_stderr(io.StringIO()) as err:
        for argv in op.argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a child process would exit 1 here
                code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                error = f"{argv[0]} returned {code}: {err.getvalue().strip()[-300:]}"
                break
    return perf_counter() - start, error


def closed_loop(ops: list, seconds: float, env: dict) -> Tally:
    """One client: each operation starts when the previous one has ended."""
    tally = Tally()
    end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < end:
        tally.reference.append(reference_seconds(env))
        op = ops[i % len(ops)]
        tally.record(op, *run_op_child(op, env, tally))
        i += 1
    tally.reference.append(reference_seconds(env))
    return tally


def digest(paths: list) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class SetUp:
    prepared: Prepared
    seconds: float
    digest: str  # of the inputs, which the seed alone must fix
    error: str | None  # the warm-up's, whose exit status alone is checked


def set_up(workload: str, seed: int, work: Path, run_op) -> SetUp:
    """Generate the inputs and run the warm-up operation through ``run_op``.

    The warm-up's outputs are not checked: on its 2,880-epoch input the
    comparator may rightly find no sleep, leaving ``compare`` fields NA.
    """
    start = perf_counter()
    prepared = WORKLOADS[workload](seed, work)
    _, error = run_op(prepared.warmup)
    return SetUp(prepared, perf_counter() - start, digest(prepared.inputs), error)


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    env = child_env()
    warmups = Tally()  # only for the peak RSS, which warm-ups must not set
    setups = [
        set_up(workload, seed, work, lambda op: run_op_child(op, env, warmups))
        for _ in range(SETUP_REPEATS)
    ]
    tally = closed_loop(setups[0].prepared.ops, seconds, env)
    for s in setups:
        if s.error is not None:
            tally.fail(f"warm-up: {s.error}")
    if len({s.digest for s in setups}) != 1:
        tally.fail("the same seed generated different inputs")
    raw = {
        "epochs_per_s": tally.epochs_done / sum(tally.seconds),
        "latency_p50_ms": 1e3 * statistics.median(tally.seconds),
        "setup_s": statistics.median(s.seconds for s in setups),
    }
    scale = REFERENCE_S / statistics.median(tally.reference)
    metrics = {
        "epochs_per_s": raw["epochs_per_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "peak_rss_mb": tally.peak_rss_mb,
        "accuracy": _mean(tally.accuracy.values()),
        "setup_s": raw["setup_s"] * scale,
    }
    print(f"latency_p50_ms samples: {len(tally.seconds)}; reference task median "
          f"{statistics.median(tally.reference):.4f} s, scale {scale:.4f}; raw "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()), file=sys.stderr)
    return tally, metrics


def probe_start_up(env: dict) -> dict:
    """Median wall time of a bare interpreter and of ``import actisleep.cli``."""
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        for code, times in (("pass", bare), ("import actisleep.cli", imported)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            times.append(perf_counter() - start)
    floor = statistics.median(bare)
    return {
        "cli.interpreter_ms": 1e3 * floor,
        "cli.import_ms": 1e3 * (statistics.median(imported) - floor),
    }


def import_program():
    sys.path.insert(0, str(SRC))
    import actisleep.cli

    if not Path(actisleep.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported actisleep from {actisleep.cli.__file__}")
    return actisleep.cli


def per_layer(workload: str, seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    metrics = probe_start_up(child_env())
    cli = import_program()
    setup = set_up(workload, seed, work, lambda op: run_op_inprocess(op, cli.main))
    prepared = setup.prepared
    tally = Tally()
    if setup.error is not None:
        tally.fail(f"warm-up: {setup.error}")
    tracer = spans.Tracer()
    plain, traced = [], []
    # Start another untraced/traced pair only if it should end in time.
    end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() + plain[-1] + traced[-1] < end:
        op = prepared.ops[i % len(prepared.ops)]
        seconds_plain, error = run_op_inprocess(op, cli.main)
        tally.record(op, seconds_plain, error)
        plain.append(seconds_plain)
        saved = spans.install(tracer)
        tracer.op = i
        try:
            seconds_traced, error = run_op_inprocess(op, cli.main)
        finally:
            spans.restore(saved)
        tally.record(op, seconds_traced, error)
        traced.append(seconds_traced)
        i += 1

    memory = spans.Tracer(memory=True)
    memory.op = 0
    saved = spans.install(memory)
    tracemalloc.start()
    try:
        tally.record(prepared.ops[0], *run_op_inprocess(prepared.ops[0], cli.main))
    finally:
        tracemalloc.stop()
        spans.restore(saved)

    for problem in tracer.problems + memory.problems:
        tally.fail(problem)

    times, self_ms = spans.layer_times(tracer, traced)
    metrics.update(times)
    metrics.update(spans.layer_peaks(memory))
    metrics["cli.op_untraced_ms"] = 1e3 * statistics.fmean(plain)
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    print_accounting(self_ms, metrics)
    write_spans(workload, seed, tracer)
    return tally, metrics


def print_accounting(self_ms: dict, metrics: dict) -> None:
    """Layer self times plus ``cli.other_ms`` against the operation time."""
    rows = sorted(((v, k) for k, v in self_ms.items() if v > 0), reverse=True)
    rows.append((metrics["cli.other_ms"], "cli.other"))
    print("self time per operation (in process, traced):", file=sys.stderr)
    for value, name in rows:
        share = 100.0 * value / metrics["cli.op_ms"]
        print(f"  {name:<32} {value:10.2f} ms {share:6.1f} %", file=sys.stderr)
    print(f"  {'sum':<32} {sum(v for v, _ in rows):10.2f} ms", file=sys.stderr)
    print(f"  {'cli.op (traced)':<32} {metrics['cli.op_ms']:10.2f} ms", file=sys.stderr)
    print(f"each child process also pays cli.interpreter "
          f"{metrics['cli.interpreter_ms']:.2f} ms + cli.import {metrics['cli.import_ms']:.2f} ms",
          file=sys.stderr)


def write_spans(workload: str, seed: int, tracer: spans.Tracer) -> None:
    path = WORK / f"spans-{workload}-seed{seed}.json"
    records = [
        {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start, "end": s.end}
        for s in tracer.spans
    ]
    path.write_text(json.dumps(records))
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)


def declared(trace: bool) -> dict:
    """The metrics BENCHMARK.json declares for the mode, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "actisleep" / "cli.py").is_file():
        print(f"error: no actisleep source at {SRC / 'actisleep'}", file=sys.stderr)
        return 2
    specs = declared(bool(args.trace))

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        tally, values = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work)

    if set(values) != set(specs):
        print(f"error: measured {sorted(values)} but declared {sorted(specs)}", file=sys.stderr)
        return 2
    for name, value in tally.properties().items():
        print(f"input {name}: {value:.4g}", file=sys.stderr)
    print(f"error_rate: {tally.failed / tally.attempted:.4g} fraction "
          f"({tally.failed} of {tally.attempted} operations)", file=sys.stderr)
    for name, spec in specs.items():
        print(f"{name}: {values[name]:.6g} {spec['unit']}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": s["unit"]} for n, s in specs.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
