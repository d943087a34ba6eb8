"""Batch command-line interface.

Subcommands cover the whole pipeline: ``simulate`` writes a synthetic
recording with ground truth, ``fit`` estimates HMM parameters from an
epoch CSV, ``score`` decodes and smooths sleep/wake labels, ``as-score``
runs the threshold-based comparator, ``compare`` evaluates predictions
against reference labels, and ``verify`` runs the brute-force oracle
self-checks.

Exit codes: 0 success, 1 verification/validation failure, 2 I/O or
format error, 3 invalid flags.  Diagnostics go to stderr; stdout stays
empty unless ``--json`` asks for a machine-readable summary: one JSON
object, the ``command`` name plus that subcommand's summary keys.  A run
that fails prints no JSON, except a ``verify`` whose check fails, which
prints its summary with ``passed: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import hmm, postprocess
from .actiwatch import AsConfig, as_score
from .errors import ActisleepError, FormatError
from .series import (
    _SUPPORTED_EPOCH_SECONDS_MSG,
    _valid_epoch_seconds,
    log_transform,
    parse_timestamp,
    read_epoch_csv,
    read_label_csv,
    read_window_file,
    write_epoch_csv,
    write_key_values,
    write_label_csv,
)
from .simulate import DEFAULT_START_TIME, reference_params, simulate

# metrics, verify and json load only where they are used (compare,
# verify, --json), so a score run does not pay to import or compile them
if TYPE_CHECKING:
    from . import metrics

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A flag combination argparse cannot check; ``main`` exits 3."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_simulate(args) -> dict:
    params = hmm.read_params(args.params) if args.params else reference_params()
    series, states = simulate(
        params, args.t, epoch_seconds=args.epoch_seconds, seed=args.seed, start_time=args.start
    )
    prefix = args.out_prefix
    # JSON key -> output path; each file is named <prefix>.<key><extension>
    paths = {
        key: str(prefix.with_name(f"{prefix.name}.{key}{extension}"))
        for key, extension in (("epochs", ".csv"), ("labels", ".csv"), ("params", ".txt"))
    }
    write_epoch_csv(series, paths["epochs"])
    write_label_csv(states, paths["labels"])
    hmm.write_params(params, paths["params"])
    _log(f"wrote {', '.join(paths.values())}")
    return {**paths, "t_epochs": args.t, "seed": args.seed}


def _fit(args, obs) -> hmm.FitReport:
    return hmm.baum_welch(obs, hmm.default_init(obs), tol=args.tol, max_iter=args.max_iter)


def _cmd_fit(args) -> dict:
    params_path = Path(args.out_params)
    # with no --out-log the log goes to the params path with a .log suffix
    log_path = Path(args.out_log) if args.out_log else params_path.with_suffix(".log")
    # realpath, unlike Path.resolve, leaves a symlink loop to the writes (exit 2)
    if os.path.realpath(log_path) == os.path.realpath(params_path):
        raise _UsageError(f"the fit log would overwrite the parameter file {params_path}")
    report = _fit(args, log_transform(read_epoch_csv(args.epoch_csv)))
    hmm.write_params(report.params, args.out_params)
    summary = {
        "iterations": report.iterations,
        "final_log_likelihood": report.log_likelihood,
        "converged": report.converged,
        "states_swapped": report.swapped,
    }
    write_key_values(log_path, summary.items())
    _log(
        f"fit {args.epoch_csv}: {report.iterations} iterations, "
        f"converged={report.converged}"
    )
    return {**summary, "params": str(args.out_params), "log": str(log_path)}


def _cmd_score(args) -> dict:
    obs = log_transform(read_epoch_csv(args.epoch_csv))
    params = hmm.read_params(args.params) if args.params else _fit(args, obs).params
    decoded = postprocess.smooth(hmm.viterbi(obs, params), args.min_minutes)
    write_label_csv(decoded, args.out)
    _log(f"wrote {args.out} ({len(decoded)} epochs)")
    return {
        "labels": str(args.out),
        "epochs": len(decoded),
        "sleep_epochs": int(np.sum(decoded.states == 0)),
    }


def _as_config(args) -> AsConfig:
    return AsConfig(
        immobility_start_cpm=args.immobility_start_cpm,
        immobility_end_cpm=args.immobility_end_cpm,
        start_window_minutes=args.start_window_min,
        end_window_minutes=args.end_window_min,
        end_tolerance_epochs=args.end_tolerance_epochs,
        raw_thresholds=args.as_raw_thresholds,
    )


def _cmd_as_score(args) -> dict:
    series = read_epoch_csv(args.epoch_csv)
    window = read_window_file(args.window, series)
    result = as_score(series, window, _as_config(args))
    write_label_csv(result.states, args.out)
    summary = {
        "sleep_start": result.sleep_start,
        "sleep_end": result.sleep_end,
        "all_wake_fallback": result.all_wake_fallback,
    }
    write_key_values(Path(str(args.out) + ".diag"), summary.items())
    _log(f"wrote {args.out}; " + " ".join(f"{key}={value}" for key, value in summary.items()))
    return {"labels": str(args.out), **summary}


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _sleep_columns(sv: metrics.SleepVariables) -> dict:
    """The four sleep-variable columns, in report order: column name -> value."""
    return {
        "tst_min": sv.total_sleep_time_min,
        "latency_min": sv.sleep_latency_min,
        "waso_min": sv.waso_min,
        "efficiency_pct": sv.sleep_efficiency_pct,
    }


def _prediction_columns(em: metrics.EpochMetrics, sv: metrics.SleepVariables) -> dict:
    """Report columns for one prediction, in order: column name -> value."""
    c = em.confusion
    return {
        "accuracy": em.accuracy,
        "sensitivity_sleep": em.sensitivity_sleep,
        "specificity_sleep": em.specificity_sleep,
        "ppv_sleep": em.ppv_sleep,
        "ppv_wake": em.ppv_wake,
        "tp_sleep": c.tp_sleep,
        "fn_sleep": c.fn_sleep,
        "fp_sleep": c.fp_sleep,
        "tn_sleep": c.tn_sleep,
        **_sleep_columns(sv),
    }


def _cmd_compare(args) -> dict:
    from . import metrics

    series = read_epoch_csv(args.epochs)
    n = len(series)
    window = read_window_file(args.window, series)
    truth = read_label_csv(args.truth, n, series.epoch_seconds)
    truth_sv = metrics.sleep_variables(truth, window)
    report = [
        ("recording", Path(args.epochs).stem),
        ("total_epochs_min", truth_sv.total_epochs_min),
        *((f"truth_{column}", value) for column, value in _sleep_columns(truth_sv).items()),
    ]
    pred_names: list[str] = []
    for pred_path in args.pred:
        pred = read_label_csv(pred_path, n, series.epoch_seconds)
        em = metrics.epoch_metrics(metrics.confusion(pred, truth))
        sv = metrics.sleep_variables(pred, window)
        columns = _prediction_columns(em, sv)
        # the file stem names the columns, with the first _k suffix that
        # makes none of them repeat an earlier column
        taken = {column for column, _ in report}
        stem = name = Path(pred_path).stem
        k = 0
        while any(f"{name}_{column}" in taken for column in columns):
            k += 1
            name = f"{stem}_{k}"
        report.extend((f"{name}_{column}", value) for column, value in columns.items())
        pred_names.append(name)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(column for column, _ in report)
        writer.writerow(_fmt(value) for _, value in report)
    _log(f"wrote {args.out} ({len(pred_names)} predictor(s))")
    return {"report": str(args.out), "predictors": pred_names}


def _cmd_verify(args) -> dict:
    from .verify import run_verification

    report = run_verification(trials=args.trials, max_t=args.max_t, seed=args.seed)
    width = max(len(c.name) for c in report.checks)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        _log(f"{check.name:<{width}}  {status}  {check.detail}")
    return {
        "seed": report.seed,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }


def _in_range(convert, low, high=math.inf, *, open_low=False):
    """argparse type: a finite ``convert(text)`` in [low, high], or in
    (low, high] if ``open_low``; others, NaN and inf too, exit 3 as bad flags."""
    interval = f"{'(' if open_low else '['}{low}, {high}{']' if high < math.inf else ')'}"

    def in_range(text: str):
        value = convert(text)
        above = low < value if open_low else low <= value  # false for NaN
        if not (above and value <= high and value < math.inf):
            raise argparse.ArgumentTypeError(f"{value} is not in {interval}")
        return value

    in_range.__name__ = convert.__name__  # argparse names a failed conversion by it
    return in_range


def _max_t(text: str) -> int:
    """argparse type for ``verify --max-t``: 1 to the oracle's limit; others exit 3."""
    from .verify import BRUTE_FORCE_MAX_T

    return _in_range(int, 1, BRUTE_FORCE_MAX_T)(text)


def _epoch_seconds(text: str) -> int:
    """argparse type: an epoch length the epoch CSV supports; others exit 3."""
    value = int(text)
    if not _valid_epoch_seconds(value):
        raise argparse.ArgumentTypeError(f"{value}: {_SUPPORTED_EPOCH_SECONDS_MSG}")
    return value


def _start(text: str):
    """argparse type for ``simulate --start``: an ISO-8601 timestamp; others exit 3."""
    try:
        return parse_timestamp(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _out_prefix(text: str) -> Path:
    """argparse type for ``simulate --out-prefix``: a path that ends in a file
    name, which each output's name extends; others ("", ".", "/") exit 3."""
    prefix = Path(text)
    if not prefix.name:
        raise argparse.ArgumentTypeError(f"{text!r} has no file name")
    return prefix


def build_parser() -> _Parser:
    parser = _Parser(prog="actisleep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, each defined once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--json", action="store_true", help="print a JSON summary of the run on stdout"
    )
    em = argparse.ArgumentParser(add_help=False)
    count, positive = _in_range(int, 0), _in_range(float, 0, open_low=True)
    em.add_argument("--tol", type=positive, default=hmm.DEFAULT_TOL)
    em.add_argument("--max-iter", type=count, default=hmm.DEFAULT_MAX_ITER)

    def command(name, func, help_text, *parents):
        p = sub.add_parser(name, parents=[output, *parents], help=help_text)
        p.set_defaults(func=func)
        return p

    p = command("simulate", _cmd_simulate, "write a synthetic recording with truth labels")
    p.add_argument("--params", help="parameter file (default: reference parameters)")
    p.add_argument("--t", type=_in_range(int, 2), default=2880, help="number of epochs")
    p.add_argument("--epoch-seconds", type=_epoch_seconds, default=30)
    p.add_argument("--seed", type=count, default=0)
    p.add_argument(
        "--start", type=_start, default=DEFAULT_START_TIME, help="ISO-8601 start timestamp"
    )
    p.add_argument("--out-prefix", type=_out_prefix, required=True)

    p = command("fit", _cmd_fit, "fit HMM parameters to an epoch CSV", em)
    p.add_argument("epoch_csv")
    p.add_argument("--out-params", required=True)
    p.add_argument("--out-log", help="fit log path (default: params path with .log)")

    p = command("score", _cmd_score, "decode sleep/wake labels (Viterbi + smoothing)", em)
    p.add_argument("epoch_csv")
    p.add_argument("--params", help="parameter file; omitted = fit inline")
    p.add_argument("--out", required=True)
    minutes = _in_range(float, 0)
    p.add_argument("--min-minutes", type=minutes, default=postprocess.DEFAULT_MIN_MINUTES)

    p = command("as-score", _cmd_as_score, "threshold-based comparator scoring")
    p.add_argument("epoch_csv")
    p.add_argument("--window", required=True, help="window sidecar file")
    p.add_argument("--out", required=True)
    d = AsConfig()
    p.add_argument("--immobility-start-cpm", type=positive, default=d.immobility_start_cpm)
    p.add_argument("--immobility-end-cpm", type=positive, default=d.immobility_end_cpm)
    p.add_argument("--start-window-min", type=positive, default=d.start_window_minutes)
    p.add_argument("--end-window-min", type=positive, default=d.end_window_minutes)
    p.add_argument("--end-tolerance-epochs", type=count, default=d.end_tolerance_epochs)
    p.add_argument("--as-raw-thresholds", action="store_true")

    p = command("compare", _cmd_compare, "evaluate predictions against reference labels")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", action="append", required=True)
    p.add_argument("--epochs", required=True, help="epoch CSV (timing and length)")
    p.add_argument("--window", required=True)
    p.add_argument("--out", required=True)

    p = command("verify", _cmd_verify, "run brute-force oracle self-checks")
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--max-t", type=_max_t, default=12)
    p.add_argument("--seed", type=count, default=0)
    return parser


def main(argv=None) -> int:
    if argv is None:
        # a process of its own: spare the collections in the run, and the one
        # at exit, from walking numpy's import graph; library callers keep theirs
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except _UsageError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_IO
    except ActisleepError as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION
    if args.json:
        import json

        print(json.dumps({"command": args.command, **payload}, sort_keys=True))
    return EXIT_OK if payload.get("passed", True) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
