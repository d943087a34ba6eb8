"""The benchmark's workloads: their inputs, operations and output checks.

Every epoch is 30 s.  The three ``score`` workloads read inputs from the
benchmark's own generator (``gen``); ``simulate-validate`` has the
program write its own recordings.  Why each workload exists:

- ``night-score``: the paper's study unit, one night of 2,880 epochs from
  the fragmented reference chain, scored with the inline fit.  Start-up
  and fixed per-call costs show here first.
- ``week-score``: the one-week target, 20,160 epochs of consolidated
  circadian sleep, scored with the inline fit.  Baum-Welch dominates and
  few runs keep smoothing cheap, so forward-backward work shows most.
- ``long-decode``: 200,000 epochs of the fragmented chain decoded with the
  true parameters, so no fit runs.  Smoothing (quadratic in the number of
  runs), Viterbi and CSV I/O carry it; a Baum-Welch change should leave it
  unchanged.
- ``simulate-validate``: ``simulate`` -> ``as-score`` -> ``compare`` on
  200,000 epochs.  The only workload that writes epoch CSVs and runs the
  simulator, the comparator and the metrics; no HMM code runs, and each
  operation pays three process starts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

NIGHT_START = "2012-05-01T21:30:00"
WEEK_START = "2012-05-01T12:00:00"
LONG_START = "2012-05-01T00:00:00"
SIM_START = "2012-05-01T21:30:00"
WARMUP_EPOCHS = gen.EPOCHS_PER_DAY
SIM_EPOCHS = 200_000

# Prediction columns ``compare`` writes per predictor.
COMPARE_COLUMNS = (
    "accuracy",
    "sensitivity_sleep",
    "specificity_sleep",
    "ppv_sleep",
    "ppv_wake",
    "tp_sleep",
    "fn_sleep",
    "fp_sleep",
    "tn_sleep",
    "tst_min",
    "latency_min",
    "waso_min",
    "efficiency_pct",
)


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Outcome:
    """What a checked operation produced, for the metrics and properties."""

    accuracy: float  # epoch agreement of the labels written with the truth
    counts: np.ndarray  # the input's activity counts
    truth: np.ndarray  # the input's true states


@dataclass(frozen=True)
class Op:
    """One user operation: ``actisleep`` commands run one after another."""

    argvs: list  # each an ``actisleep`` argument list
    epochs: int
    outputs: tuple  # files the operation writes; removed before it runs
    check: Callable[[], Outcome]


@dataclass
class Prepared:
    ops: list
    warmup: Op  # the same operation on a 2,880-epoch input, run in set-up
    inputs: list  # files fixed by the seed alone


def read_labels(path, n: int) -> np.ndarray:
    """A label CSV's states, after checking row count, order and tokens."""
    with open(path, newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if len(lines) != n + 2:
        raise CheckFailed(f"{path}: {len(lines) - 2} label rows, expected {n}")
    states = np.array([line.endswith(",W") for line in lines[1:-1]], dtype=np.int8)
    if text != gen.label_text(states):
        raise CheckFailed(f"{path}: bad header, row order or state token")
    return states


def read_epoch_counts(path, n: int, start: str) -> np.ndarray:
    """An epoch CSV's counts, after checking length, start and spacing."""
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    if lines[0] != "timestamp,count" or lines[-1] != "" or len(lines) != n + 2:
        raise CheckFailed(f"{path}: bad header or {len(lines) - 2} rows, expected {n}")
    stamps, _, counts = zip(*(line.partition(",") for line in lines[1:-1]))
    if list(stamps) != gen.timestamps(start, n).tolist():
        raise CheckFailed(f"{path}: timestamps do not start at {start}Z every 30 s")
    try:
        return np.array(counts, dtype=np.int64)
    except ValueError:
        raise CheckFailed(f"{path}: a count is not an integer") from None


def check_report(path, pred_stem: str, truth: np.ndarray, pred: np.ndarray) -> None:
    """Every ``compare`` field is present and finite and agrees with the labels."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise CheckFailed(f"{path}: no data row")
    header, row = rows[0], rows[1]
    missing = [c for c in COMPARE_COLUMNS if f"{pred_stem}_{c}" not in header]
    if missing or len(row) != len(header):
        raise CheckFailed(f"{path}: missing fields {missing or 'in the data row'}")
    values = {}
    for name, text in zip(header[1:], row[1:]):  # the first field names the recording
        try:
            values[name] = float(text)
        except ValueError:
            raise CheckFailed(f"{path}: field {name} is {text!r}") from None
        if not math.isfinite(values[name]):
            raise CheckFailed(f"{path}: field {name} is {text!r}")
    p, t = pred == gen.SLEEP, truth == gen.SLEEP
    expected = {
        "tp_sleep": np.sum(p & t),
        "fn_sleep": np.sum(~p & t),
        "fp_sleep": np.sum(p & ~t),
        "tn_sleep": np.sum(~p & ~t),
        "accuracy": np.mean(p == t),
    }
    for col, value in expected.items():
        if abs(values[f"{pred_stem}_{col}"] - float(value)) > 1e-9 * max(1.0, value):
            raise CheckFailed(f"{path}: {col} disagrees with the label files")


def _score_check(pred: Path, rec: gen.Recording) -> Callable[[], Outcome]:
    def check() -> Outcome:
        states = read_labels(pred, len(rec))
        return Outcome(float(np.mean(states == rec.states)), rec.counts, rec.states)

    return check


def _prepare_score(work: Path, name: str, recordings: list, warmup, params=None):
    """Write each recording and its truth; the last operation is the warm-up."""
    ops = []
    inputs = [] if params is None else [params]
    for i, rec in enumerate(recordings + [warmup]):
        epochs = work / f"{name}{i}.epochs.csv"
        truth = work / f"{name}{i}.truth.csv"
        pred = work / f"{name}{i}.pred.csv"
        gen.write_epoch_csv(rec, epochs)
        gen.write_label_csv(rec.states, truth)
        inputs += [epochs, truth]
        argv = ["score", str(epochs), "--out", str(pred)]
        if params is not None:
            argv[2:2] = ["--params", str(params)]
        ops.append(Op([argv], len(rec), (pred,), _score_check(pred, rec)))
    return Prepared(ops[:-1], ops[-1], inputs)


def prepare_night(seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 1])
    recs = [gen.fragmented_chain(2880, rng, NIGHT_START) for _ in range(9)]
    return _prepare_score(work, "night", recs[:-1], recs[-1])


def prepare_week(seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 2])
    recs = [gen.circadian_week(7, rng, WEEK_START) for _ in range(4)]
    return _prepare_score(work, "week", recs, gen.circadian_week(1, rng, WEEK_START))


def prepare_long(seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 3])
    params = work / "true.params.txt"
    gen.write_true_params(params)
    recs = [gen.fragmented_chain(200_000, rng, LONG_START) for _ in range(3)]
    warmup = gen.fragmented_chain(WARMUP_EPOCHS, rng, LONG_START)
    return _prepare_score(work, "long", recs, warmup, params)


def _simulate_op(work: Path, i: int, sim_seed: int, n: int, window: Path) -> Op:
    prefix = work / f"sim{i}"
    epochs = Path(f"{prefix}.epochs.csv")
    labels = Path(f"{prefix}.labels.csv")
    params = Path(f"{prefix}.params.txt")
    pred = work / f"sim{i}_as.csv"
    report = work / f"sim{i}.report.csv"
    argvs = [
        ["simulate", "--t", str(n), "--seed", str(sim_seed), "--start", f"{SIM_START}Z",
         "--out-prefix", str(prefix)],
        ["as-score", str(epochs), "--window", str(window), "--out", str(pred)],
        ["compare", "--truth", str(labels), "--pred", str(pred), "--epochs", str(epochs),
         "--window", str(window), "--out", str(report)],
    ]

    def check() -> Outcome:
        counts = read_epoch_counts(epochs, n, SIM_START)
        truth = read_labels(labels, n)
        states = read_labels(pred, n)
        check_report(report, pred.stem, truth, states)
        return Outcome(float(np.mean(states == truth)), counts, truth)

    outputs = (epochs, labels, params, pred, Path(f"{pred}.diag"), report)
    return Op(argvs, n, outputs, check)


def prepare_simulate(seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 4])
    sim_seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]
    window = work / "window.txt"
    warm_window = work / "window_warmup.txt"
    gen.write_window(window, SIM_START, SIM_EPOCHS)
    gen.write_window(warm_window, SIM_START, WARMUP_EPOCHS)
    ops = [_simulate_op(work, i, s, SIM_EPOCHS, window) for i, s in enumerate(sim_seeds[:-1])]
    warmup = _simulate_op(work, len(ops), sim_seeds[-1], WARMUP_EPOCHS, warm_window)
    return Prepared(ops, warmup, [window, warm_window])


WORKLOADS = {
    "night-score": prepare_night,
    "week-score": prepare_week,
    "long-decode": prepare_long,
    "simulate-validate": prepare_simulate,
}
