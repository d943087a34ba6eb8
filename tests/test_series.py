"""Data model and file-format tests: CSV ingest, labels, windows, log transform."""

import calendar
import io
import math
import re
import time
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actisleep import series as series_module
from actisleep.errors import EmptyInputError, FormatError, InputError
from actisleep.series import (
    EpochSeries,
    LogSeries,
    State,
    StateSequence,
    StudyWindow,
    log_transform,
    parse_timestamp,
    read_epoch_csv,
    read_key_values,
    read_label_csv,
    read_window_file,
    write_epoch_csv,
    write_key_values,
    write_label_csv,
)

from state_letters import STAMP_FORMS, format_timestamp, from_letters, restamped, to_letters

START = datetime(2012, 5, 1, 21, 30, 0, tzinfo=timezone.utc)


def _epoch_csv(tmp_path, rows, name="epochs.csv"):
    path = tmp_path / name
    path.write_text("timestamp,count\n" + "".join(f"{t},{c}\n" for t, c in rows))
    return path


class TestEpochSeries:
    def test_basic_construction(self):
        s = EpochSeries(START, 30, [0, 0, 57])
        assert len(s) == 3
        assert s.counts.dtype == np.int64
        assert s.timestamp(2) == datetime(2012, 5, 1, 21, 31, 0, tzinfo=timezone.utc)

    def test_counts_immutable(self):
        s = EpochSeries(START, 30, [1, 2, 3])
        with pytest.raises(ValueError):
            s.counts[0] = 9

    def test_negative_count_rejected(self):
        with pytest.raises(InputError):
            EpochSeries(START, 30, [0, -1])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            EpochSeries(START, 30, [])

    @pytest.mark.parametrize("epoch_seconds", [15, 30, 60, 120, 1, 5, 180])
    def test_supported_epoch_lengths(self, epoch_seconds):
        EpochSeries(START, epoch_seconds, [1])

    def test_timestamps_past_year_9999_rejected(self):
        start = datetime(9999, 12, 31, 23, 59, 0, tzinfo=timezone.utc)
        assert EpochSeries(start, 30, [1, 2]).timestamp(1).second == 30
        with pytest.raises(InputError, match="past year 9999"):
            EpochSeries(start, 30, [1, 2, 3])

    @pytest.mark.parametrize(
        "start",
        [
            datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1))),
            datetime(9999, 12, 31, 23, tzinfo=timezone(timedelta(hours=-5))),
        ],
    )
    def test_start_outside_utc_years_rejected(self, start):
        with pytest.raises(InputError, match="outside years 1..9999 in UTC"):
            EpochSeries(start, 30, [1])

    @pytest.mark.parametrize("epoch_seconds", [0, -30, 45, 90])
    def test_unsupported_epoch_lengths(self, epoch_seconds):
        with pytest.raises(InputError):
            EpochSeries(START, epoch_seconds, [1])


class TestReadEpochCsv:
    def test_direct_parse(self, tmp_path):
        path = _epoch_csv(
            tmp_path,
            [
                ("2012-05-01T21:30:00Z", 0),
                ("2012-05-01T21:30:30Z", 0),
                ("2012-05-01T21:31:00Z", 57),
            ],
        )
        s = read_epoch_csv(path)
        assert s.epoch_seconds == 30
        assert list(s.counts) == [0, 0, 57]
        assert s.start_time == START

    def test_single_row_is_empty_input(self, tmp_path):
        path = _epoch_csv(tmp_path, [("2012-05-01T21:30:00Z", 5)])
        with pytest.raises(EmptyInputError):
            read_epoch_csv(path)

    def test_no_rows_is_empty_input(self, tmp_path):
        path = _epoch_csv(tmp_path, [])
        with pytest.raises(EmptyInputError):
            read_epoch_csv(path)

    def test_nonconstant_spacing_names_row_4(self, tmp_path):
        # spacings 30 s, 30 s, 60 s: the fourth data row breaks the pattern
        path = _epoch_csv(
            tmp_path,
            [
                ("2012-05-01T21:30:00Z", 1),
                ("2012-05-01T21:30:30Z", 2),
                ("2012-05-01T21:31:00Z", 3),
                ("2012-05-01T21:32:00Z", 4),
            ],
        )
        with pytest.raises(FormatError, match="row 4"):
            read_epoch_csv(path)

    def test_spacing_errors_count_blank_rows(self, tmp_path):
        # a blank line after data row 1 is CSV row 2, so the 60 s gap is at row 5
        path = tmp_path / "epochs.csv"
        path.write_text(
            "timestamp,count\n"
            "2012-05-01T21:30:00Z,1\n"
            "\n"
            "2012-05-01T21:30:30Z,2\n"
            "2012-05-01T21:31:00Z,3\n"
            "2012-05-01T21:32:00Z,4\n"
        )
        with pytest.raises(FormatError, match="row 5: spacing 60 s differs from 30 s"):
            read_epoch_csv(path)
        path.write_text(
            "timestamp,count\n"
            "2012-05-01T21:30:00Z,1\n"
            "\n"
            "2012-05-01T21:30:00Z,2\n"
        )
        with pytest.raises(FormatError, match="row 3: non-positive or fractional"):
            read_epoch_csv(path)

    def test_unsupported_spacing_names_row(self, tmp_path):
        # 45 s neither divides 60 nor is a multiple of it; the blank row 2 is counted
        path = tmp_path / "epochs.csv"
        path.write_text(
            "timestamp,count\n"
            "2012-05-01T21:30:00Z,1\n"
            "\n"
            "2012-05-01T21:30:45Z,2\n"
            "2012-05-01T21:31:30Z,3\n"
        )
        with pytest.raises(
            FormatError,
            match=f"^{path}: row 3: epoch spacing 45 s is not supported: "
            "epoch_seconds must divide 60 or be a multiple of 60$",
        ):
            read_epoch_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the spacing breaks at row 3, ahead of row 4's bad count
            (
                [
                    ("2012-05-01T21:30:00Z", 1),
                    ("2012-05-01T21:30:30Z", 2),
                    ("2012-05-01T21:31:30Z", 3),
                    ("2012-05-01T21:32:00Z", "x"),
                ],
                "row 3: spacing 60 s differs from 30 s",
            ),
            # an unsupported spacing at row 2, ahead of row 3's negative count
            (
                [
                    ("2012-05-01T21:30:00Z", 1),
                    ("2012-05-01T21:30:45Z", 2),
                    ("2012-05-01T21:31:30Z", -3),
                ],
                "row 2: epoch spacing 45 s is not supported",
            ),
            # a row's own count comes before its spacing
            (
                [("2012-05-01T21:30:00Z", 1), ("2012-05-01T21:30:45Z", "x")],
                "row 2: count 'x' is not an integer",
            ),
        ],
    )
    def test_first_bad_row_named(self, tmp_path, rows, message):
        path = _epoch_csv(tmp_path, rows)
        with pytest.raises(FormatError, match=f"^{path}: {message}"):
            read_epoch_csv(path)

    # int() reads the first two as 1000 and 3; a doubled sign is refused as int() refuses it,
    # and so is a count of more digits than int() converts (4,300 by default)
    @pytest.mark.parametrize(
        "count", ["1_000", "\u0663", "+-5", pytest.param("7" * 5000, id="5000-digits")]
    )
    def test_count_must_be_ascii_digits(self, tmp_path, count):
        path = tmp_path / "epochs.csv"
        rows = f"timestamp,count\n2012-05-01T21:30:00Z,1\n2012-05-01T21:30:30Z,{count}\n"
        path.write_text(rows, encoding="utf-8")
        message = f"row 2: count {count!r} is not an integer"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_epoch_csv(path)

    def test_count_sign_and_whitespace_read(self, tmp_path):
        path = _epoch_csv(
            tmp_path, [("2012-05-01T21:30:00Z", " +7 "), ("2012-05-01T21:30:30Z", "\t0")]
        )
        assert read_epoch_csv(path).counts.tolist() == [7, 0]

    @pytest.mark.parametrize(
        "first, second, row",
        [
            ("9999-12-31T23:59:00-01:00", "9999-12-31T23:59:30-01:00", 1),
            ("9999-12-31T22:59:30-01:00", "9999-12-31T23:00:00-01:00", 2),
        ],
    )
    def test_timestamp_outside_utc_range_rejected(self, tmp_path, first, second, row):
        # valid local times whose UTC instants fall past year 9999
        path = _epoch_csv(tmp_path, [(first, 1), (second, 2)])
        with pytest.raises(FormatError, match=f"row {row}: bad timestamp .*out of range"):
            read_epoch_csv(path)

    def test_last_row_without_newline(self, tmp_path):
        path = tmp_path / "epochs.csv"
        rows = "timestamp,count\n2012-05-01T21:30:00Z,1\n2012-05-01T21:30:30Z,2\n"
        path.write_text(rows + "2012-05-01T21:31:00Z,3")
        assert read_epoch_csv(path).counts.tolist() == [1, 2, 3]
        path.write_text(rows + "2012-05-01T21:31:00Z")
        with pytest.raises(FormatError, match="row 3: expected 2 fields"):
            read_epoch_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = _epoch_csv(
            tmp_path,
            [("2012-05-01T21:30:00Z", 1), ("2012-05-01T21:30:30Z", -2)],
        )
        with pytest.raises(FormatError, match="negative"):
            read_epoch_csv(path)

    def test_count_above_int64_rejected(self, tmp_path):
        path = _epoch_csv(
            tmp_path,
            [("2012-05-01T21:30:00Z", 2**63 - 1), ("2012-05-01T21:30:30Z", 2**63)],
        )
        with pytest.raises(FormatError, match="row 2: count 9223372036854775808"):
            read_epoch_csv(path)

    def test_count_int64_max_accepted(self, tmp_path):
        path = _epoch_csv(
            tmp_path,
            [("2012-05-01T21:30:00Z", 2**63 - 1), ("2012-05-01T21:30:30Z", 0)],
        )
        assert read_epoch_csv(path).counts[0] == 2**63 - 1

    def test_non_integer_count_rejected(self, tmp_path):
        path = _epoch_csv(
            tmp_path,
            [("2012-05-01T21:30:00Z", 1), ("2012-05-01T21:30:30Z", "2.5")],
        )
        with pytest.raises(FormatError, match="not an integer"):
            read_epoch_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n2012-05-01T21:30:00Z,1\n")
        with pytest.raises(FormatError, match="header"):
            read_epoch_csv(path)

    @pytest.mark.parametrize("epoch_seconds", [15, 30, 60, 120, 3600])
    @pytest.mark.parametrize(
        "start",
        [
            datetime(2012, 5, 1, 21, 30, 17, 654321, tzinfo=timezone.utc),
            datetime(1969, 12, 31, 23, 58, 45, tzinfo=timezone(timedelta(hours=-5))),
            datetime(999, 1, 1, 0, 0, 0, tzinfo=timezone.utc),
        ],
    )
    def test_writer_rows_match_format_timestamp(self, tmp_path, start, epoch_seconds):
        counts = np.arange(200) * 7919 % 1000
        series = EpochSeries(start, epoch_seconds, counts)
        path = tmp_path / "rec.csv"
        write_epoch_csv(series, path)
        expected = ["timestamp,count"] + [
            f"{format_timestamp(series.timestamp(i))},{c}" for i, c in enumerate(counts)
        ]
        assert path.read_text().split("\n") == expected + [""]

    def test_writer_rows_across_chunks(self, tmp_path):
        n = 2 * series_module._WRITE_CHUNK + 3
        series = EpochSeries(START, 30, np.arange(n))
        path = tmp_path / "rec.csv"
        write_epoch_csv(series, path)
        lines = path.read_text().splitlines()
        assert len(lines) == n + 1
        for i in (0, series_module._WRITE_CHUNK - 1, series_module._WRITE_CHUNK, n - 1):
            assert lines[i + 1] == f"{format_timestamp(series.timestamp(i))},{i}"

    def test_year_999_round_trip(self, tmp_path):
        start = datetime(999, 1, 1, tzinfo=timezone.utc)
        path = tmp_path / "rec.csv"
        write_epoch_csv(EpochSeries(start, 30, [0, 5, 9]), path)
        assert path.read_text().splitlines()[1] == "0999-01-01T00:00:00Z,0"
        again = read_epoch_csv(path)
        assert again.start_time == start
        assert again.epoch_seconds == 30

    def test_round_trip_byte_identical(self, tmp_path):
        path = _epoch_csv(
            tmp_path,
            [
                ("2012-05-01T21:30:00Z", 0),
                ("2012-05-01T21:30:30Z", 12),
                ("2012-05-01T21:31:00Z", 122),
            ],
        )
        original = path.read_bytes()
        out = tmp_path / "rewritten.csv"
        write_epoch_csv(read_epoch_csv(path), out)
        assert out.read_bytes() == original


class TestLabelCsv:
    def test_read_basic(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("epoch_index,state\n0,S\n1,W\n2,S\n")
        labels = read_label_csv(path, 3)
        assert list(labels.states) == [State.SLEEP, State.WAKE, State.SLEEP]

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("epoch_index,state\n0,S\n1,W\n2,S\n")
        with pytest.raises(FormatError, match="expected 4"):
            read_label_csv(path, 4)

    def test_unknown_token(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("epoch_index,state\n0,S\n1,N\n")
        with pytest.raises(FormatError, match="unknown state token"):
            read_label_csv(path, 2)

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("epoch_index,state\n0,S\n0,W\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_label_csv(path, 2)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,S\n-1,W\n", "row 2: index -1 outside 0..1"),
            ("0,S\n2,W\n", "row 2: index 2 outside 0..1"),
            ("0,S\nx,W\n", "row 2: bad epoch index 'x'"),
            ("0,S\n1\n", "row 2: expected 2 fields"),
            ("1,S\n1,N\n", "row 2: duplicate index 1"),
        ],
    )
    def test_bad_rows_named(self, tmp_path, rows, message):
        path = tmp_path / "labels.csv"
        path.write_text("epoch_index,state\n" + rows)
        with pytest.raises(FormatError, match=message):
            read_label_csv(path, 2)

    # int() reads the first two as 2; a doubled sign is refused as int() refuses it,
    # and so is an index of more digits than int() converts (4,300 by default)
    @pytest.mark.parametrize(
        "index", ["0_2", "\u0662", "--2", pytest.param("1" * 5000, id="5000-digits")]
    )
    def test_index_must_be_ascii_digits(self, tmp_path, index):
        path = tmp_path / "labels.csv"
        path.write_text(f"epoch_index,state\n0,S\n1,W\n{index},S\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"row 3: bad epoch index {index!r}")):
            read_label_csv(path, 3)

    def test_index_sign_and_whitespace_read(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("epoch_index,state\n +1 ,W\n\t0,S\n")
        assert list(read_label_csv(path, 2).states) == [State.SLEEP, State.WAKE]

    def test_shortfall_counts_labeled_epochs(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("epoch_index,state\n3,S\n\n0,W\n")
        with pytest.raises(FormatError, match=f"^{path}: 2 labeled epochs, expected 5$"):
            read_label_csv(path, 5)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("epoch_index,state\n\n1, W\n\n0,S\n")
        assert to_letters(read_label_csv(path, 2)) == ["S", "W"]

    def test_round_trip(self, tmp_path):
        seq = StateSequence(np.array([0, 1, 1, 0], dtype=np.int8), 30)
        path = tmp_path / "labels.csv"
        write_label_csv(seq, path)
        again = read_label_csv(path, 4)
        assert np.array_equal(again.states, seq.states)

    def test_writer_rows_across_chunks(self, tmp_path):
        n = 2 * series_module._WRITE_CHUNK + 3
        states = np.arange(n) * 7919 % 3 == 0
        path = tmp_path / "labels.csv"
        write_label_csv(StateSequence(states.astype(np.int8), 30), path)
        expected = "epoch_index,state\n" + "".join(
            f"{i},{'SW'[s]}\n" for i, s in enumerate(states.tolist())
        )
        assert path.read_text() == expected


class TestOverLongField:
    """A field over the csv module's size limit is a format error naming its row."""

    LONG = "1" * 200_000  # the csv module's default field size limit is 131,072

    @pytest.mark.parametrize(
        "text, where",
        [
            ("timestamp,count\n2012-05-01T21:30:00Z,1\n\n2012-05-01T21:31:00Z,{long}\n", "row 3"),
            ("timestamp,{long}\n2012-05-01T21:30:00Z,1\n", "header"),
        ],
        ids=["data-row", "header"],
    )
    def test_epoch_csv(self, tmp_path, text, where):
        path = tmp_path / "epochs.csv"
        path.write_text(text.format(long=self.LONG))
        for read in (read_epoch_csv, series_module._scan_epoch_csv):
            with pytest.raises(FormatError, match=f"^{path}: {where}: field larger than field"):
                read(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("epoch_index,state\n0,S\n{long},W\n", "row 2"),
            ("{long},state\n0,S\n1,W\n", "header"),
        ],
        ids=["data-row", "header"],
    )
    def test_label_csv(self, tmp_path, text, where):
        path = tmp_path / "labels.csv"
        path.write_text(text.format(long=self.LONG))
        for read in (read_label_csv, series_module._scan_label_csv):
            with pytest.raises(FormatError, match=f"^{path}: {where}: field larger than field"):
                read(path, 2, 30)


class TestStateSequence:
    def test_letters_round_trip(self):
        seq = from_letters("SWWS", 30)
        assert to_letters(seq) == ["S", "W", "W", "S"]

    def test_bad_state_value(self):
        with pytest.raises(InputError):
            StateSequence(np.array([0, 2], dtype=np.int8), 30)


class TestStudyWindow:
    def test_valid(self):
        w = StudyWindow(lights_out=0, lights_on=10, go_to_bed=0, get_up=9)
        w.check_bounds(10)

    def test_lights_order_enforced(self):
        with pytest.raises(InputError):
            StudyWindow(lights_out=5, lights_on=5, go_to_bed=0, get_up=9)

    def test_bed_order_enforced(self):
        with pytest.raises(InputError):
            StudyWindow(lights_out=0, lights_on=5, go_to_bed=6, get_up=2)

    def test_bounds_checked(self):
        w = StudyWindow(lights_out=0, lights_on=10, go_to_bed=0, get_up=9)
        with pytest.raises(InputError):
            w.check_bounds(9)


class TestWindowFile:
    def test_read_and_floor(self, tmp_path):
        series = EpochSeries(START, 30, np.zeros(200, dtype=np.int64))
        path = tmp_path / "window.txt"
        # go_to_bed at +75 s floors into epoch 2
        path.write_text(
            "lights_out=2012-05-01T21:30:00Z\n"
            "lights_on=2012-05-01T23:00:00Z\n"
            "go_to_bed=2012-05-01T21:31:15Z\n"
            "get_up=2012-05-01T22:59:30Z\n"
        )
        w = read_window_file(path, series)
        assert (w.lights_out, w.lights_on, w.go_to_bed, w.get_up) == (0, 180, 2, 179)

    def test_missing_key(self, tmp_path):
        series = EpochSeries(START, 30, np.zeros(10, dtype=np.int64))
        path = tmp_path / "window.txt"
        path.write_text("lights_out=2012-05-01T21:30:00Z\n")
        with pytest.raises(FormatError, match="missing keys"):
            read_window_file(path, series)

    def test_unknown_key(self, tmp_path):
        series = EpochSeries(START, 30, np.zeros(10, dtype=np.int64))
        path = tmp_path / "window.txt"
        path.write_text("bed_time=2012-05-01T21:30:00Z\n")
        with pytest.raises(FormatError, match="unknown key"):
            read_window_file(path, series)

    def test_repeated_key(self, tmp_path):
        series = EpochSeries(START, 30, np.zeros(200, dtype=np.int64))
        path = tmp_path / "window.txt"
        path.write_text(
            "lights_out=2012-05-01T21:30:00Z\n"
            "lights_on=2012-05-01T23:00:00Z\n"
            "go_to_bed=2012-05-01T21:31:15Z\n"
            "lights_out=2012-05-01T21:35:00Z\n"
            "get_up=2012-05-01T22:59:30Z\n"
        )
        with pytest.raises(FormatError, match="line 4: repeated key 'lights_out'"):
            read_window_file(path, series)


class TestKeyValues:
    def test_round_trip_and_formatting(self, tmp_path):
        path = tmp_path / "kv.txt"
        write_key_values(
            path,
            [("x", 0.1), ("n", 7), ("flag", True), ("off", np.False_), ("none", None)],
        )
        assert path.read_text() == (
            "x=0.10000000000000001\nn=7\nflag=true\noff=false\nnone=None\n"
        )
        values = read_key_values(path, ("x", "n", "flag", "off", "none"), str)
        assert values == {
            "x": "0.10000000000000001", "n": "7", "flag": "true", "off": "false",
            "none": "None",
        }
        assert float(values["x"]) == 0.1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("# header\n\n a = 1.5 \n")
        assert read_key_values(path, ("a",), float) == {"a": 1.5}

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a=1\nb=x\n")
        with pytest.raises(FormatError, match="line 2: bad value"):
            read_key_values(path, ("a", "b"), float)

    def test_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a=1\nb\n")
        with pytest.raises(FormatError, match="line 2: expected key=value"):
            read_key_values(path, ("a", "b"), float)


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "header, read",
        [
            (b"timestamp,count\n", read_epoch_csv),
            (b"epoch_index,state\n", lambda p: read_label_csv(p, 1)),
            (b"", lambda p: read_key_values(p, ("a",), float)),
        ],
        ids=["epochs", "labels", "key_values"],
    )
    def test_non_utf8_bytes_rejected(self, tmp_path, header, read):
        path = tmp_path / "input.txt"
        path.write_bytes(header + b"\xff\xfe=1\n")
        with pytest.raises(FormatError, match="input.txt: not UTF-8"):
            read(path)


class TestLogTransform:
    def test_zero_maps_to_exact_zero(self):
        out = log_transform(EpochSeries(START, 30, [0]))
        assert out.values[0] == 0.0

    def test_count_121(self):
        # high-precision oracle for ln(122)
        expected = float(mpmath.log(122))
        out = log_transform(EpochSeries(START, 30, [121]))
        assert out.values[0] == pytest.approx(expected, abs=1e-15)

    def test_small_counts(self):
        out = log_transform(EpochSeries(START, 30, [0, 1, 2]))
        assert out.values[0] == 0.0
        assert out.values[1] == pytest.approx(math.log(2), abs=1e-15)
        assert out.values[2] == pytest.approx(math.log(3), abs=1e-15)

    def test_strictly_monotone_and_zero_iff_zero(self):
        counts = np.arange(0, 500)
        out = log_transform(EpochSeries(START, 30, counts))
        assert np.all(np.diff(out.values) > 0)
        assert np.array_equal(out.values == 0.0, counts == 0)


class TestTimestamps:
    def test_round_trip(self):
        text = "2012-05-01T21:30:00Z"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_year_zero_padded(self):
        ts = datetime(999, 3, 4, 5, 6, 7, 890, tzinfo=timezone.utc)
        assert format_timestamp(ts) == "0999-03-04T05:06:07Z"
        assert parse_timestamp(format_timestamp(ts)) == ts.replace(microsecond=0)

    def test_converted_to_utc(self):
        ts = datetime(1970, 1, 1, 1, 0, 0, tzinfo=timezone(timedelta(hours=2)))
        assert format_timestamp(ts) == "1969-12-31T23:00:00Z"

    def test_bad_timestamp(self):
        with pytest.raises(FormatError):
            parse_timestamp("yesterday")


@pytest.fixture
def new_york_host(monkeypatch):
    """Run with the host's local time zone set to America/New_York."""
    monkeypatch.setenv("TZ", "America/New_York")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestNaiveStartTimeIsUtc:
    """A naive timestamp is UTC, whatever the host's local time zone."""

    NAIVE = datetime(2012, 5, 1, 21, 30)

    def test_format_timestamp(self, new_york_host):
        assert format_timestamp(self.NAIVE) == "2012-05-01T21:30:00Z"

    def test_series_start_held_in_utc(self, new_york_host):
        series = EpochSeries(self.NAIVE, 30, np.arange(3))
        assert series.start_time == START
        assert series.start_time.utcoffset() == timedelta(0)

    def test_writer(self, new_york_host, tmp_path):
        path = tmp_path / "rec.csv"
        write_epoch_csv(EpochSeries(self.NAIVE, 30, np.arange(3)), path)
        assert path.read_text().splitlines()[1:] == [
            "2012-05-01T21:30:00Z,0",
            "2012-05-01T21:30:30Z,1",
            "2012-05-01T21:31:00Z,2",
        ]

    def test_window_file(self, new_york_host, tmp_path):
        path = tmp_path / "window.txt"
        path.write_text(
            "lights_out=2012-05-01T21:30:00Z\nlights_on=2012-05-01T21:35:00Z\n"
            "go_to_bed=2012-05-01T21:31:00Z\nget_up=2012-05-01T21:34:00Z\n"
        )
        window = read_window_file(path, EpochSeries(self.NAIVE, 30, np.zeros(20, dtype=np.int64)))
        got = (window.lights_out, window.lights_on, window.go_to_bed, window.get_up)
        assert got == (0, 10, 2, 8)


class TestLogSeries:
    def test_negative_rejected(self):
        with pytest.raises(InputError):
            LogSeries(np.array([-0.1]), 30)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            LogSeries(np.array([np.inf]), 30)

    @pytest.mark.parametrize("values", [[], [[0.0, 1.0]], 0.5])
    def test_empty_or_not_1d_rejected(self, values):
        with pytest.raises(InputError, match="values must be a non-empty 1-d sequence"):
            LogSeries(np.array(values), 30)


# ---------------------------------------------------------------------------
# The one-pass readers against the row scans that define the formats


def _outcome(read, *args):
    """A reader's result as plain values, or its exception's type and message."""
    try:
        result = read(*args)
    except Exception as exc:  # the row scans define which errors escape, of any type
        return type(exc), str(exc)
    if result is None:
        return None
    if isinstance(result, EpochSeries):
        start, counts = result.start_time, result.counts
        return start, start.utcoffset(), result.epoch_seconds, counts.dtype, counts.tolist()
    return result.epoch_seconds, result.states.dtype, result.states.tolist()


def _assert_agree(fast, read, scan, *args):
    """The public reader gives what the scan gives; the fast pass that or None."""
    expected = _outcome(scan, *args)
    assert _outcome(read, *args) == expected
    got = _outcome(fast, *args)
    assert got is None or got == expected
    return got is not None


def _stamped(*rows: str) -> str:
    """An epoch CSV's text with these rows."""
    return "timestamp,count\n" + "".join(f"{row}\n" for row in rows)


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("agreement")


# Each row draws one; the empty ones leave it as written.
_EPOCH_MUTATIONS = (
    "", "", "", "", "", "", "gap", "blank before", "CR", "joined", "one field",
    "third field", "quoted", "leading space", "odd count", "bad stamp", "Z separator",
)
_ODD_COUNTS = (
    "1_0", "\u0663", str(2**63), str(2**63 - 1), "-1", "+5", "007", "", "2.5", "7 ", "0x1",
)
_BAD_STAMPS = (
    "yesterday", "2012-05-01Z21:30:00", "9999-12-31T23:59:59-01:00",
    "0001-01-01T00:00:00+01:00", "2012-05-01T21:30:00.5Z", "",
)


@st.composite
def epoch_files(draw):
    """An epoch CSV's text, and whether it is one the one-pass reader must accept."""
    n = draw(st.integers(0, 10))
    spacing = draw(st.sampled_from([30, 60, 15, 45, 0, -30, 30.5]))
    start = START + timedelta(seconds=draw(st.integers(-(10**9), 10**9)))
    form = draw(st.sampled_from([*STAMP_FORMS, "mixed"]))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    mutations = st.sampled_from(_EPOCH_MUTATIONS if draw(st.booleans()) else [""])
    lines = ["timestamp,count" + eol]
    shift = 0
    clean = n >= 2 and spacing in (15, 30, 60) and form == "Z" and eol == "\n"
    for i in range(n):
        mutation = draw(mutations)
        clean = clean and not mutation
        if mutation == "gap":
            shift += draw(st.sampled_from([1, 30, -30]))
        t = start + timedelta(seconds=i * spacing + shift)
        row_form = draw(st.sampled_from(list(STAMP_FORMS))) if form == "mixed" else form
        stamp = STAMP_FORMS[row_form](t)
        count = str(draw(st.integers(0, 10**6)))
        if mutation == "bad stamp":
            stamp = draw(st.sampled_from(_BAD_STAMPS))
        elif mutation == "Z separator":  # the right instant, but parse_timestamp rejects it
            stamp = t.replace(tzinfo=None).isoformat(sep="Z")
        elif mutation == "odd count":
            count = draw(st.sampled_from(_ODD_COUNTS))
        row = f"{stamp},{count}"
        if mutation == "third field":
            row += ",x"
        elif mutation == "one field":
            row = stamp
        elif mutation == "quoted":
            row = f'"{stamp}",{count}'
        elif mutation == "leading space":
            row = f" {stamp}, {count}"
        elif mutation == "blank before":
            lines.append(eol)
        lines.append(row + {"CR": "\r", "joined": ","}.get(mutation, eol))
    text = "".join(lines)
    if n and draw(st.booleans()) and draw(st.booleans()):
        text, clean = text.rstrip("\r\n"), False  # no final newline
    return text, clean


_LABEL_MUTATIONS = (
    "", "", "", "", "", "", "duplicate", "repeated row", "out of range", "bad token",
    "odd index", "blank before", "CR", "joined", "one field", "third field", "quoted",
)
_BAD_TOKENS = ("N", "s", "", "SW", " W", "W ", '"S"', "\u0405")
_ODD_INDICES = ("1_0", "+1", "00", "\u0663", " 1", "x", "-0", str(2**63), "")


@st.composite
def label_files(draw):
    """A label CSV's text, its expected length, and whether the one-pass reader must accept it."""
    n = draw(st.integers(0, 10))
    expected_len = max(n + draw(st.sampled_from([0, 0, 0, 0, 1, -1])), 0)
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    mutations = st.sampled_from(_LABEL_MUTATIONS if draw(st.booleans()) else [""])
    lines = ["epoch_index,state" + eol]
    clean = n >= 1 and expected_len == n and eol == "\n"
    for idx in draw(st.permutations(range(n))):
        mutation = draw(mutations)
        clean = clean and not mutation
        index, token = str(idx), draw(st.sampled_from("SW"))
        if mutation == "duplicate":
            index = str(draw(st.integers(0, n - 1)))
        elif mutation == "out of range":
            index = draw(st.sampled_from([str(expected_len), "-1", str(n + 5)]))
        elif mutation == "bad token":
            token = draw(st.sampled_from(_BAD_TOKENS))
        elif mutation == "odd index":
            index = draw(st.sampled_from(_ODD_INDICES))
        row = f"{index},{token}"
        if mutation == "third field":
            row += ",S"
        elif mutation == "one field":
            row = index
        elif mutation == "quoted":
            row = f'"{index}",{token}'
        elif mutation in ("blank before", "repeated row"):
            lines.append(eol if mutation == "blank before" else row + eol)
        lines.append(row + {"CR": "\r", "joined": ","}.get(mutation, eol))
    text = "".join(lines)
    if n and draw(st.booleans()) and draw(st.booleans()):
        text, clean = text.rstrip("\r\n"), False  # no final newline
    return text, expected_len, clean


class TestOnePassAgreesWithRowScan:
    """On any file, the one-pass reader gives the row scan's result or hands the file to it."""

    # Traps for a split-based reader, kept whatever the random draws:
    # a date-time separator Z that datetime.fromisoformat alone accepts, two
    # rows on one line, a fractional spacing, a one-field last row with no
    # newline.
    @example(("timestamp,count\n2012-05-01T21:30:00,1\n2012-05-01Z21:30:30,2\n", False), 96)
    @example(("timestamp,count\n2012-05-01T21:30:00Z,1,2012-05-01T21:30:30Z,2\n", False), 96)
    @example(("timestamp,count\n2012-05-01T21:30:00,1\n2012-05-01T21:30:30.5,2\n", False), 96)
    @example(("timestamp,count\n2012-05-01T21:30:00,1\n2012-05-01T21:30:30,2\n1", False), 8)
    # Traps for the numpy codec: separators off their places, calendar and
    # clock ranges, year 0, day, month and year rollovers (also at a chunk
    # boundary), counts around its 18-digit limit and an empty count.  The
    # codec reads only the Z form, so naive and offset rows (UTC instants
    # outside years 1..9999, rows that change their offset) must reach the
    # row scan and give its result.
    @example((_stamped("2013-02-28T23:59:30Z,1", "2013-02-29T00:00:00Z,2"), False), 96)
    @example((_stamped("2000-02-28T23:59:30Z,1", "2000-02-29T00:00:00Z,2"), True), 96)
    @example((_stamped("1900-02-28T23:59:30Z,1", "1900-02-29T00:00:00Z,2"), False), 96)
    @example((_stamped("2012-04-30T23:59:30,1", "2012-04-31T00:00:00,2"), False), 96)
    @example((_stamped("2012-04-30T23:59:30,1", "2012-04-30T24:00:00,2"), False), 96)
    @example((_stamped("2012-04-30T23:59:30Z,1", "2012-04-31T00:00:00Z,2"), False), 96)
    @example((_stamped("2012-04-30T23:59:30Z,1", "2012-04-30T24:00:00Z,2"), False), 96)
    @example((_stamped("2012-07-11T21:29:30Z,1", "2012-1-011T21:30:00Z,2"), False), 96)
    @example((_stamped("2012-05-00T23:59:30Z,1", "2012-05-01T00:00:00Z,2"), False), 96)
    @example((_stamped("2012-12-31T23:59:30Z,1", "2012-13-01T00:00:00Z,2"), False), 96)
    @example((_stamped("2012-05-01T21:29:60Z,1", "2012-05-01T21:30:30Z,2"), False), 96)
    @example((_stamped("2012-05-01T21:60:00Z,1", "2012-05-01T22:00:30Z,2"), False), 96)
    @example((_stamped("2012-05-01T21:30:00+24:00,1", "2012-05-01T21:30:30+24:00,2"), False), 96)
    @example((_stamped("2012-05-01T21:30:00-05:00,1", "2012-05-01T21:30:30-05:00,2"), False), 96)
    @example((_stamped("2012-05-01T21:30:00Z01:00,1", "2012-05-01T21:30:30Z01:00,2"), False), 96)
    @example((_stamped("0001-01-01T00:30:00+01:00,1", "0001-01-01T00:30:30+01:00,2"), False), 96)
    @example((_stamped("9999-12-31T23:59:00-01:00,1", "9999-12-31T23:59:30-01:00,2"), False), 96)
    @example((_stamped("2012-05-01T21:30:00-00:00,1", "2012-05-01T21:30:30-00:00,2"), False), 96)
    @example((_stamped("0000-12-31T23:59:30Z,1", "0001-01-01T00:00:00Z,2"), False), 96)
    @example((_stamped("0000-12-31T23:30:00-01:00,1", "0000-12-31T23:30:30-01:00,2"), False), 96)
    @example((_stamped("2012-05-01T23:59:30+01:00,1", "2012-05-02T00:00:00+01:00,2"), False), 8)
    @example((_stamped("2013-02-28T23:59:30,1", "2013-03-01T00:00:00,2"), False), 96)
    @example((_stamped("2012-05-01T23:59:30Z,1", "2012-05-02T00:00:00Z,2"), True), 8)
    @example((_stamped("2013-02-28T23:59:30Z,1", "2013-03-01T00:00:00Z,2"), True), 96)
    @example((_stamped("1999-12-31T23:59:30Z,1", "2000-01-01T00:00:00Z,2"), True), 8)
    @example((_stamped("2012-05-01T21:30:00Z,007", "2012-05-01T21:30:30Z,0"), True), 96)
    @example((_stamped("2012-05-01T21:30:00Z,", "2012-05-01T21:30:30Z,0"), False), 96)
    @example(
        (_stamped("2012-05-01T21:30:00Z,1", "2012-05-01T21:30:30Z,9223372036854775807"), False), 96
    )
    @example(
        (_stamped("2012-05-01T21:30:00Z,1", "2012-05-01T21:30:30Z,9223372036854775808"), False), 96
    )
    @example(
        (_stamped("2012-05-01T21:30:00Z,1", "2012-05-01T21:30:30Z,999999999999999999"), True), 96
    )
    @example(
        (
            _stamped(
                "2012-05-01T21:30:00+01:00,1",
                "2012-05-01T21:30:30+01:00,2",
                "2012-05-01T22:31:00+02:00,3",
            ),
            False,
        ),
        96,
    )
    @settings(max_examples=300, deadline=None)
    @given(epoch_files(), st.integers(1, 96))
    def test_epoch_reader(self, files_dir, file, chunk_bytes):
        text, clean = file
        path = files_dir / "epochs.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(series_module, "_READ_CHUNK_BYTES", chunk_bytes):
            fast = _assert_agree(
                series_module._parse_epoch_csv, read_epoch_csv, series_module._scan_epoch_csv, path
            )
        assert fast or not clean

    # Traps: two rows on one line, a row written twice, a one-field last row
    # with no newline, an index with a leading zero (which int() reads), a
    # digit after the state.
    @example(("epoch_index,state\n0,S,1,W\n", 2, False), 48)
    @example(("epoch_index,state\n0,S\n1,W\n1,W\n", 2, False), 48)
    @example(("epoch_index,state\n0,S\n1,W\n2", 2, False), 4)
    @example(("epoch_index,state\n00,S\n1,W\n", 2, True), 48)
    @example(("epoch_index,state\n0,S1\n1,W\n", 2, False), 48)
    @settings(max_examples=300, deadline=None)
    @given(label_files(), st.integers(1, 48))
    def test_label_reader(self, files_dir, file, chunk_bytes):
        text, expected_len, clean = file
        path = files_dir / "labels.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(series_module, "_READ_CHUNK_BYTES", chunk_bytes):
            fast = _assert_agree(
                series_module._parse_label_csv,
                lambda *a: read_label_csv(*a),
                series_module._scan_label_csv,
                path, expected_len, 30,
            )
        assert fast or not clean


_EOLS = {"\n": "LF", "\r\n": "CRLF"}
_OTHER_FORMS = [
    (form, eol) for form in STAMP_FORMS for eol in _EOLS if (form, eol) != ("Z", "\n")
]


class TestOtherFormsReadAsWritten:
    """A file in a form the writer does not write reads as the written file does.

    The agreement fuzz above checks such files only against the row scan;
    here the values themselves are checked."""

    N_ROWS = 3000  # 25 hours: the UTC and +01:00 dates both roll over

    @pytest.mark.parametrize(
        "form, eol", _OTHER_FORMS, ids=[f"{f}-{_EOLS[e]}" for f, e in _OTHER_FORMS]
    )
    def test_epoch_file(self, new_york_host, tmp_path, form, eol):
        written = EpochSeries(START, 30, np.arange(self.N_ROWS) * 7919 % 3000)
        clean = tmp_path / "clean.csv"
        write_epoch_csv(written, clean)
        expected = _outcome(read_epoch_csv, clean)
        assert expected == (START, timedelta(0), 30, np.int64, written.counts.tolist())
        path = tmp_path / "other.csv"
        path.write_bytes(restamped(clean.read_text(), form, eol).encode())
        for read in (read_epoch_csv, series_module._scan_epoch_csv):
            assert _outcome(read, path) == expected

    def test_crlf_label_file(self, tmp_path):
        written = StateSequence((np.arange(self.N_ROWS) % 3 == 2).astype(np.int8), 30)
        clean = tmp_path / "clean.csv"
        write_label_csv(written, clean)
        path = tmp_path / "crlf.csv"
        path.write_bytes(clean.read_bytes().replace(b"\n", b"\r\n"))
        expected = (30, np.int8, written.states.tolist())
        for read in (read_label_csv, series_module._scan_label_csv):
            assert _outcome(read, clean, self.N_ROWS, 30) == expected
            assert _outcome(read, path, self.N_ROWS, 30) == expected


# ---------------------------------------------------------------------------
# The byte-codec writers against the f-string writers they replaced


def _reference_epoch_text(series: EpochSeries) -> str:
    """The f-string writer's epoch CSV, its stamps from Python's calendar."""
    rows = [
        f"{format_timestamp(series.timestamp(i))},{count}\n"
        for i, count in enumerate(series.counts.tolist())
    ]
    return "timestamp,count\n" + "".join(rows)


def _reference_label_text(states: StateSequence) -> str:
    """The f-string writer's label CSV."""
    rows = [f"{i},{letter}\n" for i, letter in enumerate(to_letters(states))]
    return "epoch_index,state\n" + "".join(rows)


SUPPORTED_EPOCH_SECONDS = [s for s in range(1, 3601) if 60 % s == 0 or s % 60 == 0]
FIRST_INSTANT = datetime(1, 1, 1, tzinfo=timezone.utc)
LAST_INSTANT = datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc)
# 0, 2**63 - 1, and both sides of every power of ten from 10 to 10**18
POWER_EDGES = [0, 2**63 - 1] + [10**k + d for k in range(1, 19) for d in (-1, 0)]


@st.composite
def series_to_write(draw):
    """A series anywhere in years 1..9999 at any supported spacing up to an hour."""
    n = draw(st.integers(1, 40))
    epoch_seconds = draw(st.sampled_from(SUPPORTED_EPOCH_SECONDS))
    latest = LAST_INSTANT - timedelta(seconds=(n - 1) * epoch_seconds)
    start = FIRST_INSTANT + draw(st.timedeltas(timedelta(0), latest - FIRST_INSTANT))
    count = st.sampled_from(POWER_EDGES) | st.integers(0, 2**63 - 1)
    counts = draw(st.lists(count, min_size=n, max_size=n))
    return EpochSeries(start, epoch_seconds, np.array(counts, dtype=np.int64))


def _utc(*fields):
    return datetime(*fields, tzinfo=timezone.utc)


class TestByteCodecWriters:
    """The writers give the f-string writers' bytes, and the one-pass readers read them back."""

    @example(EpochSeries(_utc(999, 12, 31, 23, 59, 30), 30, [9, 10, 99]))
    @example(EpochSeries(_utc(1, 1, 1), 1, [0, 1]))
    @example(EpochSeries(_utc(2000, 2, 28, 23, 59), 60, [0, 2**63 - 1]))
    @example(EpochSeries(_utc(2004, 2, 29, 23, 59, 59, 999999), 1, [10**18 - 1, 10**18]))
    @example(EpochSeries(_utc(9999, 12, 31, 22, 59, 59), 3600, [1, 2]))
    @example(  # rows in three write chunks
        EpochSeries(
            _utc(2020, 1, 1, 22),
            30,
            np.random.default_rng(11).integers(0, 10**6, 2 * series_module._WRITE_CHUNK + 3),
        )
    )
    @settings(max_examples=300, deadline=None)
    @given(series_to_write())
    def test_epoch_writer(self, files_dir, series):
        path = files_dir / "written.csv"
        write_epoch_csv(series, path)
        # compared as lists, whose failure report names the first bad row
        # at once; a string diff of a long file takes minutes
        lines = path.read_text().splitlines(keepends=True)
        assert lines == _reference_epoch_text(series).splitlines(keepends=True)
        if len(series) > 1 and series.counts.max() < 10**18:
            back = series_module._parse_epoch_csv(path)
            assert back is not None
            assert back.start_time == series.start_time.replace(microsecond=0)
            assert back.epoch_seconds == series.epoch_seconds
            assert back.counts.tolist() == series.counts.tolist()

    @example(2 * series_module._WRITE_CHUNK + 3, 0)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3 * series_module._WRITE_CHUNK), st.integers(0, 2**32 - 1))
    def test_label_writer(self, files_dir, n, seed):
        states = StateSequence(np.random.default_rng(seed).integers(0, 2, n, dtype=np.int8), 30)
        path = files_dir / "written.csv"
        write_label_csv(states, path)
        assert path.read_text() == _reference_label_text(states)
        back = series_module._parse_label_csv(path, n, 30)
        assert back is not None
        assert back.states.tolist() == states.states.tolist()

    def test_calendar_matches_ordinals(self):
        """The epoch codec reads Jan 1, Feb 28/29, Mar 1 and Dec 31 of years 1 to 9999 as
        Python's calendar does, and refuses days it lacks."""
        dates = [
            date(year, month, day)
            for year in range(1, 10000)
            for month, day in ((1, 1), (2, 28), (2, 29), (3, 1), (12, 31))
            if day != 29 or calendar.isleap(year)
        ]
        chunk = "".join(f"{d.isoformat()}T00:00:00Z,0\n" for d in dates).encode()
        seconds, _ = series_module._epoch_rows(chunk)
        unix_day = date(1970, 1, 1).toordinal()
        assert seconds.tolist() == [(d.toordinal() - unix_day) * 86400 for d in dates]
        for stamp in ("2013-02-29T00:00:00", "1900-02-29T00:00:00", "0000-12-31T23:59:59"):
            with pytest.raises(series_module._Unproven):  # no such day, or year 0
                series_module._epoch_rows(f"{stamp}Z,0\n".encode())


class TestChunkProof:
    """The chunk reader checks the header and final newline; the codecs refuse other bad bytes."""

    @staticmethod
    def _chunks(rows: bytes) -> list[bytes]:
        return list(series_module._checked_chunks(io.BytesIO(b"h\n" + rows), b"h\n"))

    @pytest.mark.parametrize("rows", [b"0,S\n1,W\n", b",\n", b"2012-05-01T21:30:00Z,7\n"])
    def test_proven(self, rows):
        """Any rows that end in a newline pass; the codecs check the rest."""
        assert b"".join(self._chunks(rows)) == rows

    def test_empty_fields_refused_by_both_codecs(self):
        with pytest.raises(series_module._Unproven):
            series_module._label_rows(b",\n", 2)
        with pytest.raises(series_module._Unproven):
            series_module._epoch_rows(b",\n")

    # Each has a non-digit byte off its place; a third field then a one-field
    # row even keeps one comma per newline.
    @pytest.mark.parametrize(
        "rows",
        [b"0,S,1\nW\n", b"0,S\n\n", b"0,S\n1,W", b"0\n,S\n", b'"0",S\n', b"0,S\r\n",
         b"0, S\n", b"0,\tS\n", b"0,\xc3\xa9\n", b"0,S\x00\n"],
    )
    def test_unproven(self, rows):
        with pytest.raises(series_module._Unproven):
            series_module._label_rows(rows, 2)

    def test_missing_final_newline_refused_by_chunk_reader(self):
        with pytest.raises(series_module._Unproven):
            self._chunks(b"0,S\n1,W")

    @pytest.mark.parametrize(
        "rows",
        [b'"2012-05-01T21:30:00Z",7\n', b"2012-05-01T21:30:00Z,7\r\n",
         b"2012-05-01T21:30:00Z, 7\n", b"2012-05-01T21:30:00Z,\t7\n",
         b"2012-05-01T21:30:00Z,\xc3\xa97\n", b"2012-05-01T21:30:00Z,7\x00\n",
         b"2012-05-01 21:30:00Z,7\n", b"2012-05-01T21:30:00\x00,7\n"],
    )
    def test_epoch_unproven(self, rows):
        with pytest.raises(series_module._Unproven):
            series_module._epoch_rows(rows)


def _chunk_rows(path, header: bytes) -> list[int]:
    """The number of rows in each chunk the one-pass reader reads from ``path``."""
    with open(path, "rb") as fh:
        return [chunk.count(b"\n") for chunk in series_module._checked_chunks(fh, header)]


class TestMultiChunkFiles:
    """Errors past the first chunk name the row the row scan names."""

    N_ROWS = 5000  # about 3.5 chunks of epoch rows

    @pytest.fixture
    def epoch_lines(self, tmp_path):
        path = tmp_path / "clean.csv"
        write_epoch_csv(EpochSeries(START, 30, np.arange(self.N_ROWS) * 7919 % 3000), path)
        assert series_module._parse_epoch_csv(path) is not None
        sizes = _chunk_rows(path, b"timestamp,count\n")
        assert len(sizes) >= 4 and sizes[2] > 20
        return path.read_text().splitlines(keepends=True), sizes

    @staticmethod
    def _shift_from(lines, row, seconds):
        """Move the timestamps of data row ``row`` onward by ``seconds``."""
        for i in range(row, len(lines)):
            stamp, count = lines[i].split(",")
            t = parse_timestamp(stamp) + timedelta(seconds=seconds)
            lines[i] = f"{format_timestamp(t)},{count}"

    def _assert_named(self, tmp_path, lines, message):
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines))
        assert series_module._parse_epoch_csv(path) is None
        for read in (read_epoch_csv, series_module._scan_epoch_csv):
            with pytest.raises(FormatError) as exc:
                read(path)
            assert str(exc.value) == f"{path}: {message}"

    def test_bad_count_in_first_row_of_chunk_2(self, tmp_path, epoch_lines):
        lines, sizes = epoch_lines
        row = sizes[0] + 1  # lines[0] is the header, so lines[row] is data row ``row``
        lines[row] = lines[row].split(",")[0] + ",x\n"
        self._assert_named(tmp_path, lines, f"row {row}: count 'x' is not an integer")

    def test_spacing_break_across_chunks_1_and_2(self, tmp_path, epoch_lines):
        lines, sizes = epoch_lines
        row = sizes[0] + 1
        self._shift_from(lines, row, 30)
        self._assert_named(tmp_path, lines, f"row {row}: spacing 60 s differs from 30 s")

    def test_blank_row_in_chunk_3_counts_toward_spacing_error_row(self, tmp_path, epoch_lines):
        lines, sizes = epoch_lines
        blank = sizes[0] + sizes[1] + 10  # a data row inside chunk 3
        self._shift_from(lines, blank + 5, 30)
        lines.insert(blank, "\n")  # now CSV row ``blank``; the break is at CSV row blank + 6
        self._assert_named(tmp_path, lines, f"row {blank + 6}: spacing 60 s differs from 30 s")

    def test_duplicate_label_index_in_chunk_3(self, tmp_path):
        n = 20_000
        path = tmp_path / "labels.csv"
        write_label_csv(StateSequence(np.arange(n, dtype=np.int8) % 2, 30), path)
        assert series_module._parse_label_csv(path, n, 30) is not None
        sizes = _chunk_rows(path, b"epoch_index,state\n")
        assert len(sizes) >= 3
        lines = path.read_text().splitlines(keepends=True)
        row = sizes[0] + sizes[1] + 1
        lines[row] = "0,W\n"  # index 0 was set in chunk 1
        path.write_text("".join(lines))
        assert series_module._parse_label_csv(path, n, 30) is None
        with pytest.raises(FormatError, match=f"^{path}: row {row}: duplicate index 0$"):
            read_label_csv(path, n)


class TestReaderMemory:
    """The readers hold a chunk of rows at a time, the row scans one row, not the whole file."""

    N_ROWS = 200_000

    @staticmethod
    def _peak_bytes(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_epoch_reader_peak(self, tmp_path):
        path = tmp_path / "long.csv"
        write_epoch_csv(EpochSeries(START, 30, np.arange(self.N_ROWS) * 7919 % 3000), path)
        # parsing the whole file into rows first peaked at 16.0 MB
        assert self._peak_bytes(lambda: read_epoch_csv(path)) <= 8e6

    def test_epoch_row_scan_peak(self, tmp_path):
        path = tmp_path / "long.csv"
        write_epoch_csv(EpochSeries(START, 30, np.arange(self.N_ROWS) * 7919 % 3000), path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert series_module._parse_epoch_csv(path) is None  # CRLF rows go to the row scan
        # keeping every row's datetime and row number for a second loop peaked at 21.5 MB
        assert self._peak_bytes(lambda: read_epoch_csv(path)) <= 4e6

    def test_label_reader_peak(self, tmp_path):
        path = tmp_path / "long.csv"
        write_label_csv(StateSequence(np.arange(self.N_ROWS, dtype=np.int8) % 2, 30), path)
        # the row scan peaks at 1.02 MB
        assert self._peak_bytes(lambda: read_label_csv(path, self.N_ROWS)) <= 1.0e6
