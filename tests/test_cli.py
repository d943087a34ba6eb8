"""End-to-end CLI tests: pipeline wiring, exit codes, determinism."""

import csv
import gc
import hashlib
import inspect
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from actisleep import cli, hmm
from actisleep.actiwatch import AsConfig
from actisleep.postprocess import smooth
from actisleep.series import log_transform, read_epoch_csv, read_key_values, read_label_csv

from state_letters import format_timestamp, restamped


def _run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_window(path, series, lights_out, lights_on, go_to_bed, get_up):
    def ts(index):
        return format_timestamp(
            series.start_time + timedelta(seconds=index * series.epoch_seconds)
        )

    path.write_text(
        f"lights_out={ts(lights_out)}\n"
        f"lights_on={ts(lights_on)}\n"
        f"go_to_bed={ts(go_to_bed)}\n"
        f"get_up={ts(get_up)}\n"
    )


@pytest.fixture
def sim(tmp_path, capsys):
    prefix = tmp_path / "rec"
    code, _, _ = _run(
        capsys, "simulate", "--t", "2000", "--seed", "17", "--out-prefix", str(prefix)
    )
    assert code == 0
    return {
        "epochs": tmp_path / "rec.epochs.csv",
        "labels": tmp_path / "rec.labels.csv",
        "params": tmp_path / "rec.params.txt",
        "dir": tmp_path,
    }


class TestSimulate:
    def test_writes_three_files(self, sim):
        for key in ("epochs", "labels", "params"):
            assert sim[key].exists()
        series = read_epoch_csv(sim["epochs"])
        assert len(series) == 2000
        labels = read_label_csv(sim["labels"], 2000)
        assert len(labels) == 2000

    def test_byte_identical_determinism(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = _run(
                capsys,
                "simulate", "--t", "500", "--seed", "3",
                "--out-prefix", str(tmp_path / name),
            )
            assert code == 0
        assert (tmp_path / "a.epochs.csv").read_bytes() == (
            tmp_path / "b.epochs.csv"
        ).read_bytes()
        assert (tmp_path / "a.labels.csv").read_bytes() == (
            tmp_path / "b.labels.csv"
        ).read_bytes()

    def test_json_summary(self, tmp_path, capsys):
        code, out, _ = _run(
            capsys,
            "simulate", "--t", "100", "--out-prefix", str(tmp_path / "j"), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "simulate"
        assert payload["t_epochs"] == 100


    def test_start_before_year_1000_round_trips(self, tmp_path, capsys):
        prefix = tmp_path / "old"
        assert _run(
            capsys, "simulate", "--t", "50", "--start", "0999-01-01T00:00:00Z",
            "--out-prefix", str(prefix),
        )[0] == 0
        epochs = tmp_path / "old.epochs.csv"
        assert epochs.read_text().splitlines()[1].startswith("0999-01-01T00:00:00Z,")
        series = read_epoch_csv(epochs)
        assert series.start_time == datetime(999, 1, 1, tzinfo=timezone.utc)
        assert len(series) == 50
        assert _run(
            capsys, "score", str(epochs), "--params", str(tmp_path / "old.params.txt"),
            "--out", str(tmp_path / "old.out.csv"),
        )[0] == 0

    def test_sixty_second_epochs_round_trip(self, tmp_path, capsys):
        prefix = tmp_path / "min"
        assert _run(
            capsys, "simulate", "--t", "50", "--epoch-seconds", "60",
            "--start", "2020-01-01T22:00:00Z", "--out-prefix", str(prefix),
        )[0] == 0
        epochs = tmp_path / "min.epochs.csv"
        stamps = [row.split(",")[0] for row in epochs.read_text().splitlines()[1:4]]
        assert stamps == ["2020-01-01T22:00:00Z", "2020-01-01T22:01:00Z", "2020-01-01T22:02:00Z"]
        assert _run(
            capsys, "score", str(epochs), "--params", str(tmp_path / "min.params.txt"),
            "--out", str(tmp_path / "min.out.csv"),
        )[0] == 0

    def test_timestamps_past_year_9999_exit_1(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "simulate", "--t", "3", "--start", "9999-12-31T23:59:00Z",
            "--out-prefix", str(tmp_path / "late"),
        )
        assert code == 1
        assert "past year 9999" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "changes, message",
        [({"mu1": "mu1=-10", "sigma1": "sigma1=1"},
          "the sleep Gaussian is >= 0 with probability below 1e-3"),
         ({"mu2": "mu2=50"}, "a simulated count is above 2**63 - 1")],
    )
    def test_unsampleable_params_exit_1(self, tmp_path, changes, message):
        # a child process with a timeout, so a sampler that never ends fails
        # the test rather than hanging it; -W error turns a numpy warning fatal
        path = tmp_path / "p.txt"
        hmm.write_params(cli.reference_params(), path)
        kept = [line for line in path.read_text().splitlines() if line.split("=")[0] not in changes]
        path.write_text("".join(f"{line}\n" for line in [*kept, *changes.values()]))
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "actisleep.cli", "simulate",
             "--params", str(path), "--t", "2880", "--out-prefix", str(tmp_path / "rec")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        assert out.returncode == 1, out.stderr
        assert out.stderr == f"error: {message}\n"
        assert not (tmp_path / "rec.epochs.csv").exists()


class TestFit:
    def test_fit_writes_params_and_log(self, sim, capsys):
        out_params = sim["dir"] / "fit.params.txt"
        code, _, _ = _run(
            capsys, "fit", str(sim["epochs"]), "--out-params", str(out_params)
        )
        assert code == 0
        fitted = hmm.read_params(out_params)
        assert fitted.sleep.mu1 < fitted.wake.mu2
        log_text = (sim["dir"] / "fit.params.log").read_text()
        for field in (
            "iterations=",
            "final_log_likelihood=",
            "converged=",
            "states_swapped=",
        ):
            assert field in log_text

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            "fit", str(tmp_path / "nope.csv"),
            "--out-params", str(tmp_path / "p.txt"),
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "flags",
        [["--out-params", "{d}/fit.log"],  # the default log path is the params path
         ["--out-params", "{d}/fit.txt", "--out-log", "{d}/./fit.txt"]],
    )
    def test_log_path_equal_to_params_path_exits_3(self, sim, capsys, flags):
        before = sorted(sim["dir"].iterdir())
        flags = [f.format(d=sim["dir"]) for f in flags]
        code, _, err = _run(capsys, "fit", str(sim["epochs"]), *flags)
        assert code == 3
        assert "overwrite" in err and "Traceback" not in err
        assert sorted(sim["dir"].iterdir()) == before

    @pytest.mark.parametrize("flags", [[], ["--out-log", "{d}/loop/fit.log"]])
    def test_params_path_in_a_symlink_loop_exits_2(self, sim, capsys, flags):
        loop = sim["dir"] / "loop"
        loop.symlink_to(sim["dir"] / "back")
        (sim["dir"] / "back").symlink_to(loop)
        flags = [f.format(d=sim["dir"]) for f in flags]
        code, _, err = _run(
            capsys, "fit", str(sim["epochs"]), "--out-params", str(loop / "fit.txt"), *flags
        )
        assert code == 2
        assert "Too many levels of symbolic links" in err and "Traceback" not in err

    def test_swapped_fit_logs_the_log_likelihood_of_its_params(self, tmp_path, capsys):
        from actisleep.series import EpochSeries, write_epoch_csv

        epochs = tmp_path / "swap.epochs.csv"
        counts = np.array([200, 2000, 20, 0, 0, 0, 0, 200, 0, 400])
        write_epoch_csv(EpochSeries(datetime(2020, 1, 1, 22), 30, counts), epochs)
        out_params = tmp_path / "swap.params.txt"
        code, out, _ = _run(
            capsys, "fit", str(epochs), "--out-params", str(out_params), "--json"
        )
        assert code == 0
        log = dict(
            line.split("=", 1) for line in (tmp_path / "swap.params.log").read_text().split()
        )
        assert log["states_swapped"] == "true"
        exact = hmm.forward_log_likelihood(
            log_transform(read_epoch_csv(epochs)), hmm.read_params(out_params)
        )
        assert float(log["final_log_likelihood"]) == exact
        # --json reports the same summary as the log
        payload = json.loads(out)
        assert payload["states_swapped"] is True
        assert payload["final_log_likelihood"] == float(log["final_log_likelihood"])

    def test_swapped_fit_whose_scaled_rescore_underflows_exits_0(self, tmp_path, capsys):
        # the swapped parameters leave only a state whose density underflows,
        # so the fit scores them in log space instead of failing
        from actisleep.series import EpochSeries, write_epoch_csv

        epochs = tmp_path / "swap.epochs.csv"
        counts = np.array([0, 0, 0, 1, 2, 0, 1, 2, 0, 2])
        write_epoch_csv(EpochSeries(datetime(2020, 1, 1, 22), 30, counts), epochs)
        out_params = tmp_path / "swap.params.txt"
        code, out, _ = _run(
            capsys, "fit", str(epochs), "--out-params", str(out_params), "--json"
        )
        assert code == 0
        log = dict(
            line.split("=", 1) for line in (tmp_path / "swap.params.log").read_text().split()
        )
        payload = json.loads(out)
        assert payload["states_swapped"] is True and log["states_swapped"] == "true"
        assert payload["final_log_likelihood"] == float(log["final_log_likelihood"])
        # the parameters written score what the .log reports, with proper posteriors
        obs = log_transform(read_epoch_csv(epochs))
        params = hmm.read_params(out_params)
        assert hmm.forward_log_likelihood(obs, params) == float(log["final_log_likelihood"])
        gamma = hmm.posterior_marginals(obs, params)
        assert np.all(np.isfinite(gamma))
        assert np.all(np.abs(gamma.sum(axis=1) - 1.0) <= 1e-12)
        code, out, _ = _run(
            capsys, "score", str(epochs), "--out", str(tmp_path / "labels.csv"), "--json"
        )
        assert code == 0
        assert json.loads(out)["epochs"] == 10


class TestScore:
    def test_inline_fit_equals_two_step(self, sim, capsys):
        out_params = sim["dir"] / "fit.params.txt"
        assert _run(
            capsys, "fit", str(sim["epochs"]), "--out-params", str(out_params)
        )[0] == 0
        two_step = sim["dir"] / "two_step.csv"
        inline = sim["dir"] / "inline.csv"
        assert _run(
            capsys,
            "score", str(sim["epochs"]), "--params", str(out_params),
            "--out", str(two_step),
        )[0] == 0
        assert _run(
            capsys, "score", str(sim["epochs"]), "--out", str(inline)
        )[0] == 0
        assert two_step.read_bytes() == inline.read_bytes()

    @pytest.mark.parametrize("form, eol", [("Z", "\r\n"), ("naive", "\n"), ("+01:00", "\n")])
    def test_other_epoch_forms_score_the_same(self, sim, capsys, form, eol):
        other = sim["dir"] / "other.epochs.csv"
        other.write_bytes(restamped(sim["epochs"].read_text(), form, eol).encode())
        for flags in (("--params", str(sim["params"])), ()):
            outs = [sim["dir"] / "written.csv", sim["dir"] / "other.csv"]
            for epochs, out in zip((sim["epochs"], other), outs):
                assert _run(capsys, "score", str(epochs), *flags, "--out", str(out))[0] == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_min_minutes_zero_skips_smoothing(self, sim, capsys):
        raw_out = sim["dir"] / "raw.csv"
        assert _run(
            capsys,
            "score", str(sim["epochs"]), "--params", str(sim["params"]),
            "--out", str(raw_out), "--min-minutes", "0",
        )[0] == 0
        got = read_label_csv(raw_out, 2000)
        series = read_epoch_csv(sim["epochs"])
        expected = hmm.viterbi(log_transform(series), hmm.read_params(sim["params"]))
        assert np.array_equal(got.states, expected.states)


    @pytest.mark.parametrize("value", ["-3", "nan", "inf"])
    def test_bad_min_minutes_exits_3(self, sim, capsys, value):
        out = sim["dir"] / "bad.csv"
        code, _, err = _run(
            capsys,
            "score", str(sim["epochs"]), "--params", str(sim["params"]),
            "--out", str(out), f"--min-minutes={value}",
        )
        assert code == 3
        assert "Traceback" not in err
        assert not out.exists()

    def test_single_loud_epoch_exits_0(self, tmp_path, capsys):
        # a quiet recording with one loud final epoch leaves the wake
        # state unoccupied before the last epoch during the fit
        from datetime import datetime

        from actisleep.series import EpochSeries, write_epoch_csv

        epochs = tmp_path / "quiet.epochs.csv"
        counts = np.array([0] * 99 + [5000])
        write_epoch_csv(EpochSeries(datetime(2020, 1, 1, 22), 30, counts), epochs)
        out = tmp_path / "quiet.labels.csv"
        code, _, err = _run(capsys, "score", str(epochs), "--out", str(out))
        assert code == 0, err
        assert len(read_label_csv(out, 100).states) == 100

    @pytest.mark.parametrize(
        "key, value", [("a11", "nan"), ("mu2", "nan"), ("sigma2", "inf")]
    )
    def test_non_finite_params_exit_1(self, sim, capsys, key, value):
        params = sim["dir"] / "bad.params.txt"
        params.write_text(
            "".join(
                f"{key}={value}\n" if line.startswith(f"{key}=") else line + "\n"
                for line in sim["params"].read_text().splitlines()
            )
        )
        out = sim["dir"] / "pred.csv"
        code, _, err = _run(
            capsys,
            "score", str(sim["epochs"]), "--params", str(params), "--out", str(out),
        )
        assert code == 1
        assert "error:" in err
        assert not out.exists()

    def test_repeated_params_key_exits_2(self, sim, capsys):
        params = sim["dir"] / "twice.params.txt"
        params.write_text(sim["params"].read_text() + "mu1=2.0\n")
        code, _, err = _run(
            capsys,
            "score", str(sim["epochs"]), "--params", str(params),
            "--out", str(sim["dir"] / "pred.csv"),
        )
        assert code == 2
        assert "line 12: repeated key 'mu1'" in err


class TestAsScore:
    def test_end_to_end_with_diag(self, sim, capsys):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        out = sim["dir"] / "as.csv"
        code, _, _ = _run(
            capsys,
            "as-score", str(sim["epochs"]), "--window", str(window),
            "--out", str(out),
        )
        assert code == 0
        labels = read_label_csv(out, 2000)
        assert len(labels) == 2000
        diag = (sim["dir"] / "as.csv.diag").read_text()
        assert "sleep_start=" in diag
        assert "all_wake_fallback=" in diag

    def test_json_reports_the_diag_values(self, sim, capsys):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        out = sim["dir"] / "as.csv"
        code, stdout, _ = _run(
            capsys,
            "as-score", str(sim["epochs"]), "--window", str(window),
            "--out", str(out), "--json",
        )
        assert code == 0
        payload = json.loads(stdout)
        keys = ("sleep_start", "sleep_end", "all_wake_fallback")
        diag = read_key_values(
            sim["dir"] / "as.csv.diag", keys, lambda raw: None if raw == "None" else json.loads(raw)
        )
        assert diag == {key: payload[key] for key in keys}
        assert payload["sleep_start"] is not None

    @pytest.mark.parametrize("flag", ["--start-window-min", "--end-window-min"])
    def test_huge_finite_window_falls_back_to_all_wake(self, sim, capsys, flag):
        # 60 x 1e308 overflows to inf; a window that long finds no block
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        out = sim["dir"] / "as.csv"
        code, stdout, err = _run(
            capsys,
            "as-score", str(sim["epochs"]), "--window", str(window),
            "--out", str(out), flag, "1e308", "--json",
        )
        assert code == 0, err
        assert json.loads(stdout)["all_wake_fallback"] is True
        assert not np.any(read_label_csv(out, 2000).states == 0)

    def test_flag_defaults_are_the_library_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["as-score", "rec.csv", "--window", "w.txt", "--out", "o.csv"])
        assert cli._as_config(args) == AsConfig()
        args = parser.parse_args(["score", "rec.csv", "--out", "o.csv"])
        assert args.min_minutes == inspect.signature(smooth).parameters["min_minutes"].default

    def test_window_under_one_epoch_exits_1(self, sim, capsys):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        out = sim["dir"] / "as.csv"
        code, _, err = _run(
            capsys,
            "as-score", str(sim["epochs"]), "--window", str(window),
            "--out", str(out), "--start-window-min", "0.2", "--end-window-min", "0.2",
        )
        assert code == 1
        assert "window" in err
        assert not out.exists()


    @pytest.mark.parametrize("flags, code", [((), 1), (("--as-raw-thresholds",), 0)])
    def test_rescoring_refuses_twenty_second_epochs(self, tmp_path, capsys, flags, code):
        # rescoring weighs neighbours at 15, 30, 60 and 120 s epochs only;
        # raw thresholds need no rescoring
        prefix = tmp_path / "rec"
        assert _run(
            capsys, "simulate", "--t", "300", "--epoch-seconds", "20", "--out-prefix", str(prefix)
        )[0] == 0
        epochs = tmp_path / "rec.epochs.csv"
        series = read_epoch_csv(epochs)
        window = tmp_path / "window.txt"
        _write_window(window, series, 0, 300, 0, 299)
        out = tmp_path / "as.csv"
        got, _, err = _run(
            capsys, "as-score", str(epochs), "--window", str(window), "--out", str(out), *flags
        )
        assert got == code, err
        assert out.exists() == (code == 0)
        if code:
            assert "rescoring supports epoch lengths (15, 30, 60, 120), got 20" in err


class TestCompare:
    def test_report_layout(self, sim, capsys):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        pred = sim["dir"] / "pred.csv"
        assert _run(
            capsys,
            "score", str(sim["epochs"]), "--params", str(sim["params"]),
            "--out", str(pred),
        )[0] == 0
        out = sim["dir"] / "report.csv"
        code, _, _ = _run(
            capsys,
            "compare", "--truth", str(sim["labels"]), "--pred", str(pred),
            "--epochs", str(sim["epochs"]), "--window", str(window),
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "recording"
        assert "pred_accuracy" in header
        assert "truth_tst_min" in header
        # a header and the one data row
        assert [line.split(",")[0] for line in lines[1:]] == ["rec.epochs"]
        acc = float(lines[1].split(",")[header.index("pred_accuracy")])
        assert 0.5 < acc <= 1.0
        # a truth file with CRLF line ends gives the same report
        crlf = sim["dir"] / "crlf.labels.csv"
        crlf.write_bytes(sim["labels"].read_bytes().replace(b"\n", b"\r\n"))
        again = sim["dir"] / "again.csv"
        assert _run(
            capsys,
            "compare", "--truth", str(crlf), "--pred", str(pred),
            "--epochs", str(sim["epochs"]), "--window", str(window),
            "--out", str(again),
        )[0] == 0
        assert again.read_bytes() == out.read_bytes()

    def _compare(self, sim, capsys, preds):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        out = sim["dir"] / "report.csv"
        flags = [arg for pred in preds for arg in ("--pred", str(pred))]
        code, stdout, _ = _run(
            capsys,
            "compare", "--truth", str(sim["labels"]), *flags,
            "--epochs", str(sim["epochs"]), "--window", str(window),
            "--out", str(out), "--json",
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == len(set(header))
        return header, json.loads(stdout)["predictors"]

    def test_stem_named_truth_gets_a_suffix(self, sim, capsys):
        pred = sim["dir"] / "truth.csv"
        pred.write_bytes(sim["labels"].read_bytes())
        header, names = self._compare(sim, capsys, [pred])
        assert names == ["truth_1"]
        assert "truth_1_accuracy" in header

    def test_repeated_stems_get_unused_suffixes(self, sim, capsys):
        (sim["dir"] / "x").mkdir()
        preds = [sim["dir"] / "a.csv", sim["dir"] / "a_2.csv", sim["dir"] / "x" / "a.csv"]
        for pred in preds:
            pred.write_bytes(sim["labels"].read_bytes())
        _, names = self._compare(sim, capsys, preds)
        assert names == ["a", "a_2", "a_1"]

    def test_names_with_commas_survive(self, sim, capsys):
        epochs = sim["dir"] / "rec,a.epochs.csv"
        epochs.write_bytes(sim["epochs"].read_bytes())
        pred = sim["dir"] / "p,q.csv"
        pred.write_bytes(sim["labels"].read_bytes())
        window = sim["dir"] / "window.txt"
        _write_window(window, read_epoch_csv(epochs), 0, 2000, 0, 1999)
        out = sim["dir"] / "report.csv"
        code, _, _ = _run(
            capsys,
            "compare", "--truth", str(sim["labels"]), "--pred", str(pred),
            "--epochs", str(epochs), "--window", str(window), "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert len(row) == len(header)
        assert row[0] == "rec,a.epochs"
        assert float(row[header.index("p,q_accuracy")]) == 1.0

    def test_undefined_rate_written_as_na(self, sim, capsys):
        # an all-wake truth has no sleep epochs, so sensitivity for sleep is 0/0
        truth = sim["dir"] / "wake.csv"
        truth.write_text("epoch_index,state\n" + "".join(f"{i},W\n" for i in range(2000)))
        window = sim["dir"] / "window.txt"
        _write_window(window, read_epoch_csv(sim["epochs"]), 0, 2000, 0, 1999)
        out = sim["dir"] / "report.csv"
        assert _run(
            capsys,
            "compare", "--truth", str(truth), "--pred", str(sim["labels"]),
            "--epochs", str(sim["epochs"]), "--window", str(window), "--out", str(out),
        )[0] == 0
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert row[header.index("rec.labels_sensitivity_sleep")] == "NA"

    def test_length_mismatch_exits_1(self, sim, capsys):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        short = sim["dir"] / "short.csv"
        short.write_text(
            "epoch_index,state\n" + "".join(f"{i},S\n" for i in range(10))
        )
        code, _, err = _run(
            capsys,
            "compare", "--truth", str(sim["labels"]), "--pred", str(short),
            "--epochs", str(sim["epochs"]), "--window", str(window),
            "--out", str(sim["dir"] / "r.csv"),
        )
        assert code == 2
        assert "short.csv" in err

    def test_bad_prediction_file_named_once(self, sim, capsys):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        out = sim["dir"] / "r.csv"
        # an epoch CSV passed as a prediction has the wrong header
        code, _, err = _run(
            capsys,
            "compare", "--truth", str(sim["labels"]), "--pred", str(sim["epochs"]),
            "--epochs", str(sim["epochs"]), "--window", str(window), "--out", str(out),
        )
        assert code == 2
        assert err.count(str(sim["epochs"])) == 1
        assert "expected header 'epoch_index,state'" in err
        assert not out.exists()


class TestGoldenBytes:
    """Pinned output hashes: a change to what the pipeline writes is explicit.

    The fitted parameter file is left out, because numpy's summation
    kernels differ across CPUs and can change its last digits; the labels
    decoded from it are pinned.
    """

    GOLDEN = {
        "rec.epochs.csv": "79bb2fe20f6ba92bae0c8431267af1d7326e9fbff746dd75d788912a15290b73",
        "rec.labels.csv": "c728632e859f41b1da59d6a67c982cd59f9a2340bf29d9552eceffd9c359cf17",
        "rec.params.txt": "36930acb0ea0b5d586aa785d853e2e974c5907d7dd58e65fe679b02046e8001f",
        "scored.csv": "e11d68e8d8e59c79a2eef5b8925b2ca0596cd87a4cfde30411c6d5db6d9bb39b",
    }

    def test_simulate_and_inline_score(self, tmp_path, capsys):
        assert _run(
            capsys,
            "simulate", "--t", "2880", "--seed", "7", "--out-prefix", str(tmp_path / "rec"),
        )[0] == 0
        assert _run(
            capsys,
            "score", str(tmp_path / "rec.epochs.csv"), "--out", str(tmp_path / "scored.csv"),
        )[0] == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.GOLDEN
        }
        assert got == self.GOLDEN


class TestGoldenFit:
    """The fit of the golden recording, pinned where ``TestGoldenBytes`` is not.

    The params file's last digits can differ across CPUs, so its bytes are
    not pinned: its iteration count is pinned exactly, and its parameters
    to a relative 1e-9, or an absolute 1e-15 for the near-zero pi_sleep.
    A different count means the EM trajectory flipped its stop test; a
    parameter outside its tolerance at the same count means the E-step or
    M-step arithmetic changed.
    """

    ITERATIONS = 5
    PARAMS = {
        "a11": 0.96149880341441851,
        "a12": 0.03850119658558139,
        "a21": 0.055695778348864071,
        "a22": 0.94430422165113592,
        "pi_sleep": 3.7402172223487278e-12,
        "pi_wake": 0.99999999999625977,
        "alpha": 0.73198899928041605,
        "mu1": 2.5807695380316438,
        "sigma1": 1.0591891361800103,
        "mu2": 4.8095735240836754,
        "sigma2": 0.87711825892172302,
    }

    def test_fit(self, tmp_path, capsys):
        assert _run(
            capsys,
            "simulate", "--t", "2880", "--seed", "7", "--out-prefix", str(tmp_path / "rec"),
        )[0] == 0
        assert _run(
            capsys,
            "fit", str(tmp_path / "rec.epochs.csv"), "--out-params", str(tmp_path / "fit.txt"),
        )[0] == 0
        log_keys = ("iterations", "final_log_likelihood", "converged", "states_swapped")
        log = read_key_values(tmp_path / "fit.log", log_keys, str)
        assert (log["iterations"], log["converged"]) == (str(self.ITERATIONS), "true")
        got = read_key_values(tmp_path / "fit.txt", tuple(self.PARAMS), float)
        expected = {
            key: pytest.approx(value, abs=1e-15) if key == "pi_sleep"
            else pytest.approx(value, rel=1e-9, abs=0)
            for key, value in self.PARAMS.items()
        }
        assert got == expected


class TestVerify:
    def test_clean_run_exits_0(self, capsys):
        code, _, err = _run(capsys, "verify", "--trials", "50")
        assert code == 0
        assert "PASS" in err

    def test_json_payload(self, capsys):
        code, out, _ = _run(capsys, "verify", "--trials", "20", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 4

    def test_injected_fault_exits_1(self, capsys, monkeypatch):
        real = hmm.forward_log_likelihood
        monkeypatch.setattr(
            hmm, "forward_log_likelihood", lambda obs, p: real(obs, p) + 1e-6
        )
        code, _, err = _run(capsys, "verify", "--trials", "30")
        assert code == 1
        assert "FAIL" in err


class TestJson:
    """``--json``: one object on stdout after a run that succeeds, none after a failure."""

    KEYS = {
        "simulate": {"epochs", "labels", "params", "t_epochs", "seed"},
        "fit": {
            "iterations", "final_log_likelihood", "converged", "states_swapped", "params", "log",
        },
        "score": {"labels", "epochs", "sleep_epochs"},
        "as-score": {"labels", "sleep_start", "sleep_end", "all_wake_fallback"},
        "compare": {"report", "predictors"},
        "verify": {"seed", "passed", "checks"},
    }

    @staticmethod
    def _argv(sim, name):
        d = sim["dir"]
        window = d / "window.txt"
        _write_window(window, read_epoch_csv(sim["epochs"]), 0, 2000, 0, 1999)
        epochs = str(sim["epochs"])
        return {
            "simulate": ["simulate", "--t", "100", "--out-prefix", str(d / "new")],
            "fit": ["fit", epochs, "--out-params", str(d / "fit.txt")],
            "score": ["score", epochs, "--params", str(sim["params"]), "--out", str(d / "p.csv")],
            "as-score": ["as-score", epochs, "--window", str(window), "--out", str(d / "as.csv")],
            "compare": [
                "compare", "--truth", str(sim["labels"]), "--pred", str(sim["labels"]),
                "--epochs", epochs, "--window", str(window), "--out", str(d / "report.csv"),
            ],
            "verify": ["verify", "--trials", "5"],
            # failures: a window under one epoch (1), a missing epoch CSV (2)
            # and a fit log that would overwrite the params file (3)
            "bad-window": [
                "as-score", epochs, "--window", str(window), "--out", str(d / "as.csv"),
                "--start-window-min", "0.2", "--end-window-min", "0.2",
            ],
            "missing-csv": ["score", str(d / "nope.csv"), "--out", str(d / "p.csv")],
            "overwrite": ["fit", epochs, "--out-params", str(d / "fit.log")],
        }[name]

    @pytest.mark.parametrize("command", list(KEYS))
    def test_payload_keys(self, sim, capsys, command):
        code, out, _ = _run(capsys, *self._argv(sim, command), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload.pop("command") == command
        assert set(payload) == self.KEYS[command]

    @pytest.mark.parametrize(
        "name, expected", [("bad-window", 1), ("missing-csv", 2), ("overwrite", 3)]
    )
    def test_failed_run_prints_no_json(self, sim, capsys, name, expected):
        code, out, err = _run(capsys, *self._argv(sim, name), "--json")
        assert code == expected
        assert out == ""
        assert "error:" in err

    def test_failed_verify_prints_its_json_and_exits_1(self, capsys, monkeypatch):
        from actisleep import verify

        check = verify.CheckResult("forward vs enumeration", False, "worst rel err 1.0")
        report = verify.VerifyReport(seed=4, checks=[check])
        monkeypatch.setattr(verify, "run_verification", lambda **kwargs: report)
        code, out, err = _run(capsys, "verify", "--json")
        assert code == 1
        assert json.loads(out) == {
            "command": "verify",
            "seed": 4,
            "passed": False,
            "checks": [
                {"name": "forward vs enumeration", "passed": False, "detail": "worst rel err 1.0"}
            ],
        }
        assert "FAIL" in err


class TestBadInputFiles:
    def test_count_above_int64_exits_2(self, tmp_path, capsys):
        epochs = tmp_path / "big.epochs.csv"
        epochs.write_text(
            "timestamp,count\n"
            "2020-01-01T22:00:00Z,1\n"
            f"2020-01-01T22:00:30Z,{2**63}\n"
        )
        code, _, err = _run(
            capsys, "score", str(epochs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2
        assert "big.epochs.csv: row 2" in err

    def test_bad_epoch_timestamp_names_file_and_row(self, tmp_path, capsys):
        epochs = tmp_path / "bad.epochs.csv"
        epochs.write_text(
            "timestamp,count\n"
            "2020-01-01T22:00:00Z,1\n"
            "2020-01-01T22:00:30Z,2\n"
            "not-a-time,3\n"
        )
        code, _, err = _run(
            capsys, "score", str(epochs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2
        assert f"{epochs}: row 3: bad timestamp 'not-a-time'" in err

    def test_unsupported_epoch_spacing_exits_2(self, tmp_path, capsys):
        epochs = tmp_path / "odd.epochs.csv"
        epochs.write_text(
            "timestamp,count\n"
            "2020-01-01T22:00:00Z,1\n"
            "2020-01-01T22:00:45Z,2\n"
            "2020-01-01T22:01:30Z,3\n"
        )
        code, _, err = _run(
            capsys, "score", str(epochs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2
        assert f"{epochs}: row 2: epoch spacing 45 s is not supported" in err

    def test_bad_window_timestamp_names_file_and_line(self, sim, capsys):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        lines = window.read_text().splitlines()
        lines[1] = "lights_on=nope"
        window.write_text("\n".join(lines) + "\n")
        code, _, err = _run(
            capsys, "as-score", str(sim["epochs"]), "--window", str(window),
            "--out", str(sim["dir"] / "out.csv"),
        )
        assert code == 2
        assert f"{window}: line 2: bad timestamp 'nope'" in err

    @pytest.mark.parametrize("where", ["data-row", "header"])
    @pytest.mark.parametrize("target", ["epochs", "labels"])
    def test_over_long_csv_field_exits_2(self, sim, capsys, target, where):
        # csv.Error from a field over the csv module's 131,072-character limit
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        path = sim[target]
        lines = path.read_text().splitlines(keepends=True)
        row = 0 if where == "header" else 3
        head, _, _ = lines[row].rpartition(",")
        lines[row] = f"{head},{'1' * 200_000}\n"
        path.write_text("".join(lines))
        argv = {
            "epochs": ["score", str(sim["epochs"])],
            "labels": [
                "compare", "--truth", str(sim["labels"]), "--pred", str(sim["labels"]),
                "--epochs", str(sim["epochs"]), "--window", str(window),
            ],
        }[target]
        code, _, err = _run(capsys, *argv, "--out", str(sim["dir"] / "out.csv"))
        assert code == 2
        assert "Traceback" not in err
        named = "header" if where == "header" else "row 3"
        assert f"{path}: {named}: field larger than field limit (131072)" in err

    @pytest.mark.parametrize("target", ["epochs", "params", "window", "truth"])
    def test_non_utf8_input_exits_2(self, sim, capsys, target):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        path = {
            "epochs": sim["epochs"], "params": sim["params"],
            "window": window, "truth": sim["labels"],
        }[target]
        path.write_bytes(path.read_bytes()[:40] + b"\xff\xfe\n")
        argv = {
            "epochs": ["score", str(sim["epochs"])],
            "params": ["score", str(sim["epochs"]), "--params", str(sim["params"])],
            "window": ["as-score", str(sim["epochs"]), "--window", str(window)],
            "truth": [
                "compare", "--truth", str(sim["labels"]), "--pred", str(sim["labels"]),
                "--epochs", str(sim["epochs"]), "--window", str(window),
            ],
        }[target]
        code, _, err = _run(capsys, *argv, "--out", str(sim["dir"] / "out.csv"))
        assert code == 2
        assert f"{path}: not UTF-8" in err


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        # importing the package and its CLI loads no scipy module
        code = (
            "import sys, actisleep, actisleep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(cli.__file__).resolve().parents[1])  # the package under test
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "[]"

    def test_score_and_fit_load_no_scipy(self, tmp_path):
        # the sleep M-step's truncated-normal tail is computed with math.erfc,
        # so fitting and decoding a real recording loads no scipy module
        code = f"""
import sys
from actisleep import cli
d = {str(tmp_path)!r}
for argv in (
    ["simulate", "--t", "2880", "--seed", "3", "--out-prefix", d + "/rec"],
    ["score", d + "/rec.epochs.csv", "--out", d + "/inline.csv"],
    ["score", d + "/rec.epochs.csv", "--params", d + "/rec.params.txt",
     "--out", d + "/given.csv"],
    ["fit", d + "/rec.epochs.csv", "--out-params", d + "/fit.txt"],
):
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip().splitlines()[-1] == "[]"
        for name in ("inline.csv", "given.csv", "fit.txt"):
            assert (tmp_path / name).exists()

    def test_pipeline_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency: every subcommand and the
        # paired t-test run in a process where importing scipy fails
        code = f"""
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{{name}} is refused in this process")
        return None


sys.meta_path.insert(0, RefuseScipy())
from actisleep import cli, metrics

d = {str(tmp_path)!r}
for argv in (
    ["simulate", "--t", "2880", "--seed", "3", "--start", "2020-01-01T22:00:00Z",
     "--out-prefix", d + "/rec"],
    ["fit", d + "/rec.epochs.csv", "--out-params", d + "/fit.txt"],
    ["score", d + "/rec.epochs.csv", "--out", d + "/inline.csv"],
    ["score", d + "/rec.epochs.csv", "--params", d + "/fit.txt", "--out", d + "/given.csv"],
    ["as-score", d + "/rec.epochs.csv", "--window", d + "/window.txt", "--out", d + "/as.csv"],
    ["compare", "--truth", d + "/rec.labels.csv", "--pred", d + "/inline.csv",
     "--pred", d + "/as.csv", "--epochs", d + "/rec.epochs.csv",
     "--window", d + "/window.txt", "--out", d + "/report.csv"],
    ["verify", "--trials", "20"],
):
    assert cli.main(argv) == 0, argv
t, df, p = metrics.paired_t([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
assert df == 2 and 0.07 < p < 0.08, p
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        # the whole simulated day: 2,880 epochs of 30 s
        (tmp_path / "window.txt").write_text(
            "lights_out=2020-01-01T22:00:00Z\nlights_on=2020-01-02T22:00:00Z\n"
            "go_to_bed=2020-01-01T22:00:00Z\nget_up=2020-01-02T21:59:30Z\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])  # the package under test
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip().splitlines()[-1] == "[]"
        for name in ("fit.txt", "inline.csv", "given.csv", "as.csv", "report.csv"):
            assert (tmp_path / name).exists()

    def test_score_child_loads_no_metrics_verify_or_json(self, sim):
        # metrics, verify and json load on first use (compare, verify, --json),
        # and the inline fit's percentiles do not go through numpy.ma
        code = f"""
import sys
from actisleep import cli
for argv in (
    ["score", {str(sim["epochs"])!r}, "--out", {str(sim["dir"] / "inline.csv")!r}],
    ["score", {str(sim["epochs"])!r}, "--params", {str(sim["params"])!r},
     "--out", {str(sim["dir"] / "given.csv")!r}],
):
    assert cli.main(argv) == 0, argv
modules = ("actisleep.metrics", "actisleep.verify", "json", "numpy.ma")
print(sorted(m for m in modules if m in sys.modules))
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip().splitlines()[-1] == "[]"

    # every public class and function, by the one module that defines it
    PUBLIC_NAMES = {
        "actiwatch": "AsConfig AsResult as_score find_sleep_end find_sleep_start rescore",
        "emissions": "SleepEmission WakeEmission fit_sleep_weighted fit_wake_weighted "
                     "sleep_log_emission wake_log_emission",
        "hmm": "FitReport HmmParams baum_welch default_init forward_log_likelihood "
               "posterior_marginals read_params viterbi write_params",
        "metrics": "Confusion EpochMetrics SleepVariables confusion epoch_metrics paired_t "
                   "pearson_r sleep_variables",
        "postprocess": "smooth",
        "series": "EpochSeries LogSeries State StateSequence StudyWindow log_transform "
                  "read_epoch_csv read_label_csv read_window_file write_epoch_csv "
                  "write_label_csv",
        "simulate": "reference_params simulate simulate_from_states",
        "verify": "VerifyReport brute_force_likelihood brute_force_posteriors "
                  "brute_force_viterbi run_verification",
    }

    def test_every_public_name_still_importable(self):
        # the package itself imports nothing and re-exports nothing: each name
        # has one import path, and actisleep.simulate is always the submodule
        names = {module: names.split() for module, names in self.PUBLIC_NAMES.items()}
        assert sum(map(len, names.values())) == 49
        code = f"""
import importlib, sys
import actisleep
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "actisleep")))
for module, names in {names!r}.items():
    module = importlib.import_module("actisleep." + module)
    for name in names:
        assert getattr(module, name).__module__ == module.__name__, (module, name)
from actisleep import simulate
assert simulate is sys.modules["actisleep.simulate"]
all_names = [name for names in {names!r}.values() for name in names]
print(sorted(name for name in all_names if hasattr(actisleep, name)))
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip().splitlines() == ["['actisleep']", "['simulate']"]

    def test_readme_library_example_runs_as_written(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        library = readme.split("\n## Library\n", 1)[1]
        code = library.split("```python\n", 1)[1].split("```", 1)[0]
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        # the share of epochs the smoothed decode labels as the simulator did
        assert 0.5 <= float(out) <= 1


class TestOwnProcess:
    """``main()`` run on the process's own command line, as a child of its own."""

    @staticmethod
    def _child(args, **env):
        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, **env},
        )

    def test_only_the_own_command_line_freezes_the_collector(self, sim, capsys):
        before = gc.get_freeze_count()
        argv = ["score", str(sim["epochs"]), "--out", str(sim["dir"] / "p.csv")]
        assert _run(capsys, *argv)[0] == 0
        assert gc.get_freeze_count() == before
        code = f"""
import gc, sys
from actisleep import cli
sys.argv = ["actisleep", *{argv!r}]
assert cli.main() == 0
print(gc.get_freeze_count() > 0)
"""
        assert self._child(["-c", code]).stdout.strip() == "True"

    def test_module_run_prints_one_json_object(self, sim):
        out = str(sim["dir"] / "p.csv")
        done = self._child(["-m", "actisleep.cli", "score", str(sim["epochs"]), "--out", out,
                            "--json"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("\n") == 1
        assert json.loads(done.stdout) == {
            "command": "score",
            "labels": out,
            "epochs": 2000,
            "sleep_epochs": int(np.sum(read_label_csv(out, 2000).states == 0)),
        }
        done = self._child(["-m", "actisleep.cli", "score", str(sim["dir"] / "nope.csv"),
                            "--out", out, "--json"])
        assert (done.returncode, done.stdout) == (2, "")

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for 2 BLAS threads")
    def test_fit_does_not_depend_on_the_blas_thread_count(self, tmp_path, capsys):
        # a week, long enough for OpenBLAS to split a dot product across threads
        prefix = str(tmp_path / "week")
        argv = ["simulate", "--t", "20160", "--seed", "1", "--out-prefix", prefix]
        assert _run(capsys, *argv)[0] == 0
        written = []
        for threads in ("1", "2"):
            params = tmp_path / f"fit{threads}.txt"
            done = self._child(
                ["-m", "actisleep.cli", "fit", prefix + ".epochs.csv", "--out-params", str(params)],
                OPENBLAS_NUM_THREADS=threads,
            )
            assert done.returncode == 0, done.stderr
            written.append(params.read_bytes())
        assert written[0] == written[1]


class TestUsageErrors:
    def test_unknown_subcommand_exits_3(self, capsys):
        assert _run(capsys, "frobnicate")[0] == 3

    def test_missing_required_flag_exits_3(self, capsys):
        assert _run(capsys, "simulate")[0] == 3

    def test_bad_flag_value_exits_3(self, capsys):
        assert _run(
            capsys, "simulate", "--t", "many", "--out-prefix", "x"
        )[0] == 3

    @pytest.mark.parametrize(
        "flags", [["--trials", "-1"], ["--max-t", "0"], ["--max-t", "17"]]
    )
    def test_verify_flag_out_of_range_exits_3(self, capsys, flags):
        code, _, err = _run(capsys, "verify", *flags)
        assert code == 3
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "score"])
    @pytest.mark.parametrize(
        "flags",
        [["--max-iter", "-1"], ["--tol", "nan"], ["--tol", "0"], ["--tol=-1e-6"],
         ["--tol", "inf"]],
    )
    def test_em_flag_out_of_range_exits_3(self, tmp_path, capsys, command, flags):
        out = "--out-params" if command == "fit" else "--out"
        code, _, err = _run(
            capsys, command, str(tmp_path / "rec.csv"), out, str(tmp_path / "o"), *flags
        )
        assert code == 3
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [(["verify", "--max-t", "17"], "17 is not in [1, 16]"),
         (["verify", "--seed", "-1"], "-1 is not in [0, inf)"),
         (["fit", "rec.csv", "--out-params", "p", "--tol", "nan"], "nan is not in (0, inf)"),
         (["score", "rec.csv", "--out", "o", "--min-minutes", "inf"], "inf is not in [0, inf)"),
         (["as-score", "rec.csv", "--window", "w", "--out", "o", "--immobility-start-cpm", "0"],
          "0.0 is not in (0, inf)")],
    )
    def test_range_error_names_the_interval(self, capsys, argv, message):
        code, _, err = _run(capsys, *argv)
        assert code == 3
        assert message in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_simulate_t_below_one_exits_3(self, tmp_path, capsys, value):
        code, _, err = _run(
            capsys, "simulate", "--t", value, "--out-prefix", str(tmp_path / "rec")
        )
        assert code == 3
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["0", "-30", "7", "45"])
    def test_simulate_unsupported_epoch_seconds_exits_3(self, tmp_path, capsys, value):
        # an epoch length must divide 60 or be a multiple of it
        code, _, err = _run(
            capsys, "simulate", "--epoch-seconds", value, "--out-prefix", str(tmp_path / "rec")
        )
        assert code == 3
        assert "Traceback" not in err
        assert "divide 60" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--t", "100", "--out-prefix", "rec"], ["verify", "--trials", "1"]],
    )
    def test_negative_seed_exits_3(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, *argv, "--seed", "-1")
        assert code == 3
        assert "Traceback" not in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("prefix", ["", ".", "/"])
    def test_simulate_out_prefix_without_file_name_exits_3(
        self, tmp_path, capsys, monkeypatch, prefix
    ):
        # each output's name extends the prefix's file name
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, "simulate", "--t", "10", "--out-prefix", prefix)
        assert code == 3
        assert "--out-prefix" in err and "has no file name" in err
        assert "Traceback" not in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_simulate_unparsable_start_exits_3(self, tmp_path, capsys):
        code, out, err = _run(
            capsys, "simulate", "--t", "10", "--start", "yesterday",
            "--out-prefix", str(tmp_path / "rec"),
        )
        assert code == 3
        assert "--start" in err and "bad timestamp 'yesterday'" in err
        assert "Traceback" not in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_simulate_single_epoch_exits_3(self, tmp_path, capsys):
        # one epoch gives a CSV whose spacing no reader can infer
        code, _, err = _run(
            capsys, "simulate", "--t", "1", "--out-prefix", str(tmp_path / "rec")
        )
        assert code == 3
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags",
        [[flag, value]
         for flag in ("--immobility-start-cpm", "--immobility-end-cpm",
                      "--start-window-min", "--end-window-min")
         for value in ("nan", "inf", "-inf", "0", "-1")]
        + [["--end-tolerance-epochs", "-1"], ["--end-tolerance-epochs", "1.5"]],
    )
    def test_as_score_flag_out_of_range_exits_3(self, sim, capsys, flags):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        out = sim["dir"] / "as.csv"
        code, _, err = _run(
            capsys,
            "as-score", str(sim["epochs"]), "--window", str(window), "--out", str(out),
            *flags,
        )
        assert code == 3
        assert "Traceback" not in err
        assert not out.exists()

    def test_as_score_and_simulate_range_ends_accepted(self, sim, capsys):
        series = read_epoch_csv(sim["epochs"])
        window = sim["dir"] / "window.txt"
        _write_window(window, series, 0, 2000, 0, 1999)
        code, _, _ = _run(
            capsys,
            "as-score", str(sim["epochs"]), "--window", str(window),
            "--out", str(sim["dir"] / "as.csv"), "--end-tolerance-epochs", "0",
            "--immobility-start-cpm", "1e-300",
        )
        assert code == 0
        # --t 2 is the shortest recording whose epoch spacing can be read back
        prefix = sim["dir"] / "two"
        assert _run(capsys, "simulate", "--t", "2", "--out-prefix", str(prefix))[0] == 0
        assert (sim["dir"] / "two.epochs.csv").read_text().count("\n") == 3
        two = read_epoch_csv(sim["dir"] / "two.epochs.csv")
        _write_window(window, two, 0, 2, 0, 1)
        code, _, err = _run(
            capsys,
            "as-score", str(sim["dir"] / "two.epochs.csv"), "--window", str(window),
            "--out", str(sim["dir"] / "two_as.csv"),
        )
        assert code == 0, err
        assert len(read_label_csv(sim["dir"] / "two_as.csv", 2)) == 2

    def test_em_flag_range_ends_accepted(self, sim, capsys):
        params = sim["dir"] / "fit.txt"
        code, out, _ = _run(
            capsys,
            "fit", str(sim["epochs"]), "--out-params", str(params),
            "--max-iter", "0", "--tol", "1e-300", "--json",
        )
        assert code == 0
        assert json.loads(out)["iterations"] == 0

    def test_verify_flag_range_ends_accepted(self, capsys):
        assert _run(capsys, "verify", "--trials", "0", "--max-t", "16")[0] == 0
        assert _run(capsys, "verify", "--trials", "3", "--max-t", "1")[0] == 0
