"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
run.WORK.mkdir(exist_ok=True)  # where child stderr is spooled


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_byte_identical_for_a_seed(tmp_path, workload):
    prepare = workloads.WORKLOADS[workload]
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        digests.append(run.digest(prepare(seed, tmp_path / name).inputs))
    assert digests[0] == digests[1]
    if workload != "simulate-validate":  # its seed reaches the program as argv
        assert digests[0] != digests[2]


def test_generator_does_not_import_the_program():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
        "assert not [m for m in sys.modules if m.startswith('actisleep')]"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def _checked(op: Op) -> run.Tally:
    tally = run.Tally()
    tally.record(op, 1.0, None)
    return tally


def test_corrupted_label_file_counts_as_failure(tmp_path):
    op = workloads.prepare_night(3, tmp_path).warmup
    seconds, error = run.run_op_child(op, run.child_env(), run.Tally())
    assert error is None
    assert _checked(op).failed == 0
    pred = op.outputs[0]
    good = pred.read_text()
    lines = good.splitlines(keepends=True)
    corruptions = [
        good.replace(",S\n", ",X\n", 1),  # bad token
        "".join(lines[:-1]),  # a row short
        "".join(lines[:1] + lines[2:3] + lines[1:2] + lines[3:]),  # rows out of order
    ]
    for text in corruptions:
        pred.write_text(text)
        assert _checked(op).failed == 1


def test_nonzero_exit_counts_as_failure(tmp_path):
    missing = Op(
        [["score", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "p.csv")]],
        2880,
        (),
        lambda: pytest.fail("a failed command's output must not be checked"),
    )
    tally = run.closed_loop([missing], 0.0, run.child_env())
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exited 2" in tally.errors[0]


def test_bad_simulate_and_compare_outputs_count_as_failures(tmp_path):
    # seed 5 gives a warm-up recording in which the comparator finds sleep,
    # so every compare field is finite
    op = workloads.prepare_simulate(5, tmp_path).warmup
    _, error = run.run_op_child(op, run.child_env(), run.Tally())
    assert error is None
    assert _checked(op).failed == 0
    epochs, _, _, pred, _, report = op.outputs

    def corrupted(path, old, new):
        good = path.read_text()
        path.write_text(good.replace(old, new, 1))
        failed = _checked(op).failed
        path.write_text(good)
        return failed

    assert corrupted(epochs, "T21:30:30Z", "T21:31:00Z") == 1  # non-constant spacing
    assert corrupted(epochs, "timestamp", "time") == 1
    header, row = report.read_text().splitlines()[:2]
    col = header.split(",").index(f"{pred.stem}_ppv_sleep")
    fields = row.split(",")
    assert corrupted(report, row, ",".join(fields[:col] + ["NA"] + fields[col + 1 :])) == 1
    assert corrupted(report, row, ",".join(fields[:col] + ["inf"] + fields[col + 1 :])) == 1
    assert corrupted(report, f"{pred.stem}_accuracy", f"{pred.stem}_acc") == 1
    with open(epochs, "a") as fh:
        fh.write("2099-01-01T00:00:00Z,0\n")
    assert _checked(op).failed == 1  # wrong length


def test_falling_log_likelihood_and_nonfinite_params_are_problems():
    tracer = spans.Tracer()
    params = SimpleNamespace()  # no dataclass fields: nothing to check
    spans._baum_welch_hook(tracer, (), SimpleNamespace(
        iterations=2, log_likelihood_trace=[-10.0, -9.0, -9.0 - 1e-8], params=params))
    assert tracer.problems == ["log-likelihood trace fell by 1e-08"]

    from dataclasses import make_dataclass

    Params = make_dataclass("Params", ["a", "mu"])
    spans._baum_welch_hook(tracer, (), SimpleNamespace(
        iterations=1, log_likelihood_trace=[-10.0, -9.0],
        params=Params(np.eye(2), float("nan"))))
    assert tracer.problems[-1] == "fitted parameters are not all finite"


def test_self_times_and_other_account_for_the_operation():
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.spans = [
        spans.Span("hmm.baum_welch", 0, None, 0.0, 1.0),
        spans.Span("emissions.log_emission", 0, 0, 0.1, 0.2),
        spans.Span("emissions.fit_sleep_weighted", 0, 0, 0.3, 0.6),
        spans.Span("postprocess.smooth", 0, None, 1.0, 1.5),
    ]
    tracer.counts[(0, "hmm.em_iterations")] = 3
    metrics, self_ms = spans.layer_times(tracer, [2.0])
    assert metrics["hmm.baum_welch_ms"] == pytest.approx(1000.0)
    assert metrics["hmm.baum_welch_self_ms"] == pytest.approx(600.0)
    assert metrics["hmm.em_pass_ms"] == pytest.approx(250.0)
    assert metrics["cli.other_ms"] == pytest.approx(500.0)
    assert sum(self_ms.values()) + metrics["cli.other_ms"] == pytest.approx(2000.0)


def test_every_per_layer_metric_has_a_target():
    assert set(spans.TARGETS) == {m["name"] for m in SPEC["per_layer"]}


def _result(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "night-score", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(trace, section):
    done = _result(trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _result(0, tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
