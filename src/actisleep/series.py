"""Core time-series data model and file formats.

An actigraphy recording is an ordered sequence of non-negative activity
counts, one per fixed-length epoch (30 s by default).  Counts are modeled
on the log scale, log(count + 1), so a zero count maps bit-exactly to a
zero log value.  Sleep/wake labels and analysis windows (lights out/on,
go-to-bed, get-up) are carried alongside as epoch indices.

File formats:
  - epoch CSV: header ``timestamp,count``; ISO-8601 UTC timestamps at a
    constant spacing; base-10 integer counts.
  - label CSV: header ``epoch_index,state``; state ``S`` or ``W``.
  - ``key=value`` files (window sidecar, HMM parameters, fit log,
    comparator diagnostics): one pair per line, each key once; blank lines
    and ``#`` comments are skipped.  The window sidecar holds ISO-8601
    timestamps for ``lights_out``, ``lights_on``, ``go_to_bed``, ``get_up``.
"""

from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import IntEnum

import numpy as np

from .errors import EmptyInputError, FormatError, InputError

_SUPPORTED_EPOCH_SECONDS_MSG = "epoch_seconds must divide 60 or be a multiple of 60"
_MAX_COUNT = np.iinfo(np.int64).max


class State(IntEnum):
    """Sleep/wake label; the integer value is the HMM state index."""

    SLEEP = 0
    WAKE = 1


_LETTER_STATES = {"S": State.SLEEP, "W": State.WAKE}


def _valid_epoch_seconds(epoch_seconds: int) -> bool:
    if epoch_seconds <= 0:
        return False
    return 60 % epoch_seconds == 0 or epoch_seconds % 60 == 0


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EpochSeries:
    """Ordered non-negative activity counts at a fixed epoch length.

    ``start_time`` is held in UTC; a naive one is read as UTC.
    """

    start_time: datetime
    epoch_seconds: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise InputError("counts must be a non-empty 1-d sequence")
        if np.any(counts < 0):
            raise InputError("activity counts must be non-negative")
        if not _valid_epoch_seconds(self.epoch_seconds):
            raise InputError(_SUPPORTED_EPOCH_SECONDS_MSG)
        try:
            object.__setattr__(self, "start_time", _as_utc(self.start_time))
        except OverflowError:
            raise InputError("start_time falls outside years 1..9999 in UTC") from None
        try:
            self.timestamp(counts.size - 1)
        except OverflowError:
            raise InputError("epoch timestamps run past year 9999") from None
        object.__setattr__(self, "counts", _freeze(counts))

    def __len__(self) -> int:
        return int(self.counts.size)

    def timestamp(self, index: int) -> datetime:
        return self.start_time + timedelta(seconds=index * self.epoch_seconds)


@dataclass(frozen=True)
class LogSeries:
    """log(count + 1) per epoch; zero iff the source count was zero."""

    values: np.ndarray
    epoch_seconds: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise InputError("values must be a non-empty 1-d sequence")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise InputError("log values must be finite and non-negative")
        object.__setattr__(self, "values", _freeze(values))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class StateSequence:
    """Per-epoch sleep/wake labels, stored as HMM state indices."""

    states: np.ndarray
    epoch_seconds: int

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.int8)
        if states.ndim != 1 or states.size == 0:
            raise InputError("states must be a non-empty 1-d sequence")
        if not np.all((states == State.SLEEP) | (states == State.WAKE)):
            raise InputError("states must be Sleep (0) or Wake (1)")
        object.__setattr__(self, "states", _freeze(states))

    def __len__(self) -> int:
        return int(self.states.size)


@dataclass(frozen=True)
class StudyWindow:
    """Epoch-index analysis window: lights_out inclusive, lights_on exclusive."""

    lights_out: int
    lights_on: int
    go_to_bed: int
    get_up: int

    def __post_init__(self) -> None:
        if not 0 <= self.lights_out < self.lights_on:
            raise InputError("require 0 <= lights_out < lights_on")
        if not 0 <= self.go_to_bed <= self.get_up:
            raise InputError("require 0 <= go_to_bed <= get_up")

    def check_bounds(self, n_epochs: int) -> None:
        if self.lights_on > n_epochs or self.get_up >= n_epochs:
            raise InputError(
                f"study window exceeds series length {n_epochs}: {self}"
            )


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp at second resolution."""
    try:
        return _as_utc(datetime.fromisoformat(text.strip().replace("Z", "+00:00")))
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"bad timestamp {text!r}: {exc}") from None


def _as_utc(ts: datetime) -> datetime:
    """A naive timestamp is read as UTC; an aware one is converted to UTC."""
    return ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` in UTC, the year zero-padded to four digits."""
    return _as_utc(ts).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


@contextmanager
def _open_text(path):
    """Open a text input as UTF-8; a decode error becomes a FormatError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from None


_READ_CHUNK_BYTES = 1 << 15  # bytes of rows read and checked at a time; bounds the arrays held


class _Unproven(Exception):
    """The one-pass check could not prove part of a file well formed."""


def _checked_chunks(fh, header: bytes):
    """Yield the bytes after ``header``, _READ_CHUNK_BYTES and the rest of a line at a time.

    Raises _Unproven when the header line is not exactly ``header`` and on
    a chunk that does not end in a newline.  The codecs check the rows.
    """
    if fh.readline() != header:
        raise _Unproven
    # One read and one readline hold no per-line objects, as readlines does.
    while chunk := fh.read(_READ_CHUNK_BYTES) + fh.readline():
        if not chunk.endswith(b"\n"):
            raise _Unproven
        yield chunk


# Byte codecs.  A chunk of rows is one uint8 array; a byte minus ord("0")
# is its digit, and every other byte wraps to above 9.  A codec proves a
# chunk by finding each row's non-digit bytes to be exactly its separators,
# each in its place, so a quote, CR, space, tab, blank row, NUL or non-ASCII
# byte fails it.  numpy's datetime64 parses the proven timestamps and splits
# the written ones into their fields.

_ZERO = np.uint8(ord("0"))
_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 1 .. 10**18
_NUMBER_WIDTH = 19  # the digits of 2**63 - 1
_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_SECOND = timedelta(seconds=1)

# The one timestamp form the writer writes and the codec reads; "0" is a
# digit.  Its two-digit fields start at _STAMP_FIELDS: century, year,
# month, day, hour, minute and second.
_STAMP = b"0000-00-00T00:00:00Z"
_STAMP_FIELDS = (0, 2, 5, 8, 11, 14, 17)
# An epoch row's non-digit bytes, and the distance of each from the one
# before (the first's from the previous newline; 0 for the newline's,
# which depends on the count).
_EPOCH_MARKS = _STAMP.replace(b"0", b"") + b",\n"
_EPOCH_GAPS = np.append(
    np.diff([-1] + [i for i, b in enumerate(_STAMP + b",") if b != ord("0")]), 0
)
# numpy parses a stamp's bytes before its Z (on a zone suffix it warns), and
# it reads year 0, which datetime.fromisoformat refuses.
_STAMP_WITHOUT_Z = np.dtype(("S", len(_STAMP) - 1))
_YEAR_ONE = np.datetime64("0001-01-01T00:00:00", "s")


def _digit_values(digits: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The numbers whose proven digits fill ``digits[ends - widths:ends]``, 1 to 18 of them."""
    if widths.min() < 1 or widths.max() > 18:
        raise _Unproven
    at = ends - 1
    values = digits[at].astype(np.int64)
    for k in range(1, widths.max()):
        at -= 1
        values += digits[at] * (_POW10[k] * (widths > k))
    return values


def _row_marks(a: np.ndarray, digits: np.ndarray, per_row: int):
    """The non-digit bytes of a chunk, ``per_row`` to a row: their positions,
    their values and the distance of each from the one before (the first from -1)."""
    where = np.flatnonzero(digits > 9)
    if where.size % per_row:
        raise _Unproven
    steps = np.empty_like(where)
    steps[0] = where[0] + 1
    np.subtract(where[1:], where[:-1], out=steps[1:])
    return where.reshape(-1, per_row), a[where].reshape(-1, per_row), steps.reshape(-1, per_row)


def _epoch_rows(chunk: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The UTC seconds since 1970 and the counts of a chunk of epoch rows.

    Every row must hold a _STAMP timestamp that ``datetime.fromisoformat``
    reads, a comma, a count of 1 to 18 digits and a newline; else _Unproven.
    """
    a = np.frombuffer(chunk, dtype=np.uint8)
    digits = a - _ZERO
    # Each row's non-digit bytes are its separators, in place, so all other bytes are digits.
    where, got, steps = _row_marks(a, digits, len(_EPOCH_MARKS))
    widths = steps[:, -1] - 1  # the count's digits, between the comma and the newline
    steps[:, -1] = 0
    if got.tobytes() != _EPOCH_MARKS * len(got) or (steps != _EPOCH_GAPS).any():
        raise _Unproven
    starts = where[:, 0] - _EPOCH_GAPS[0] + 1
    # A view of the stamp at every byte offset; each row's is taken at its start.
    width = _STAMP_WITHOUT_Z.itemsize
    stamps = np.ndarray((a.size - width + 1,), _STAMP_WITHOUT_Z, chunk, strides=(1,))
    try:  # numpy refuses a month, day in its month, hour, minute or second out of range
        seconds = stamps[starts].astype("datetime64[s]")
    except ValueError:
        raise _Unproven from None
    if seconds.min() < _YEAR_ONE:
        raise _Unproven
    return seconds.astype(np.int64), _digit_values(digits, where[:, -1], widths)


def read_epoch_csv(path) -> EpochSeries:
    """Read an epoch CSV, inferring epoch_seconds from row spacing.

    A one-pass reader parses the file a chunk of rows at a time
    (``_checked_chunks``), and numpy reads each chunk as bytes
    (``_epoch_rows``): timestamps in the ``Z`` form the writer writes, which
    numpy's datetime64 parses, and counts of up to 18 digits.  Every spacing
    must equal the first, across chunk boundaries too.  Any file it cannot
    prove good in that way, from a quoted field, a CR or a blank row to a
    naive or ``+HH:MM`` timestamp, a wider count or a bad value, is read by
    the per-row scan ``_scan_epoch_csv`` instead, which defines what the
    format accepts and names the first bad row in its error.

    Raises FormatError for a malformed header, non-constant or unsupported
    spacing (naming the first offending row), or bad counts (negative or
    above 2**63 - 1); EmptyInputError if fewer than two data rows are
    present (spacing cannot be inferred).
    """
    series = _parse_epoch_csv(path)
    return _scan_epoch_csv(path) if series is None else series


def _parse_epoch_csv(path) -> EpochSeries | None:
    """The one-pass reader: the series, or None when the row scan must read the file."""
    counts = array("q")
    first = step = last = None
    try:
        with open(path, "rb") as fh:
            for chunk in _checked_chunks(fh, b"timestamp,count\n"):
                seconds, values = _epoch_rows(chunk)
                if first is None:
                    first = int(seconds[0])
                else:  # the last second carried over checks the spacing across chunks
                    seconds = np.concatenate(([last], seconds))
                if step is None and seconds.size > 1:
                    step = int(seconds[1] - seconds[0])
                if seconds.size > 1 and (seconds[1:] - seconds[:-1] != step).any():
                    raise _Unproven
                last = seconds[-1]
                counts.frombytes(values.tobytes())
        if step is None:
            raise _Unproven
        start = _UNIX_EPOCH + timedelta(seconds=first)
        return EpochSeries(start, step, np.frombuffer(counts, dtype=np.int64))
    except (_Unproven, InputError):
        return None


def _data_rows(path, header: list[str]):
    """Yield ``(row_no, fields)`` for each non-blank data row of a CSV with ``header``.

    Rows are numbered from 1 after the header, blank rows included.  A
    wrong header, a row without exactly two fields and a row the csv
    module cannot read (a field over its size limit) raise FormatError.
    """
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
        except csv.Error as exc:
            raise FormatError(f"{path}: header: {exc}") from None
        if got != header:
            raise FormatError(f"{path}: expected header {','.join(header)!r}, got {got}")
        row_no = 0
        try:
            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != 2:
                    raise FormatError(f"{path}: row {row_no}: expected 2 fields")
                yield row_no, row
        except csv.Error as exc:
            raise FormatError(f"{path}: row {row_no + 1}: {exc}") from None


def _ascii_int(text: str) -> int | None:
    """``int(text)`` if it is ASCII digits, signed or not, amid whitespace; else None."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    try:  # int() also refuses more digits than sys.get_int_max_str_digits() allows
        return int(text) if digits.isascii() and digits.isdigit() else None
    except ValueError:
        return None


def _scan_epoch_csv(path) -> EpochSeries:
    """Read an epoch CSV row by row: the definition of the format and its errors.

    Like the codec, it keeps the first and the previous timestamp and checks
    each row's spacing as the row arrives, after the row's own fields.
    """
    counts = array("q")
    first = last = epoch_seconds = None
    for row_no, (stamp, count_text) in _data_rows(path, ["timestamp", "count"]):
        try:
            ts = parse_timestamp(stamp)
        except FormatError as exc:
            raise FormatError(f"{path}: row {row_no}: {exc}") from None
        if (count := _ascii_int(count_text)) is None:
            raise FormatError(f"{path}: row {row_no}: count {count_text!r} is not an integer")
        if count < 0:
            raise FormatError(f"{path}: row {row_no}: negative count {count}")
        if count > _MAX_COUNT:
            raise FormatError(f"{path}: row {row_no}: count {count} above 2**63 - 1")
        if last is None:
            first = ts
        elif epoch_seconds is None:  # the second row fixes the spacing
            step = (ts - last).total_seconds()
            if step <= 0 or step != int(step):
                raise FormatError(
                    f"{path}: row {row_no}: non-positive or fractional epoch spacing"
                )
            epoch_seconds = int(step)
            if not _valid_epoch_seconds(epoch_seconds):
                raise FormatError(
                    f"{path}: row {row_no}: epoch spacing {epoch_seconds} s is not supported: "
                    f"{_SUPPORTED_EPOCH_SECONDS_MSG}"
                )
        elif (step := (ts - last).total_seconds()) != epoch_seconds:
            raise FormatError(
                f"{path}: row {row_no}: spacing {step:g} s differs from {epoch_seconds} s"
            )
        last = ts
        counts.append(count)
    if not counts:
        raise EmptyInputError(f"{path}: no data rows")
    if epoch_seconds is None:
        raise EmptyInputError(f"{path}: one data row; epoch spacing cannot be inferred")
    return EpochSeries(first, epoch_seconds, np.frombuffer(counts, dtype=np.int64))


_WRITE_CHUNK = 8192  # rows formatted at a time; bounds the arrays held at once

# Row templates for the writers, one row per line of a block.  A digit
# column holds "0", whose bits a raw digit 0-9 is OR'd into; a column the
# writer fills with final bytes holds 0.  The number sits right-aligned in
# _NUMBER_WIDTH columns, and its unused leading columns are dropped.
_EPOCH_ROW = np.frombuffer(_STAMP + b"," + b"0" * _NUMBER_WIDTH + b"\n", np.uint8)
_LABEL_ROW = np.frombuffer(b"0" * _NUMBER_WIDTH + b",\0\n", np.uint8)
_LETTERS = np.frombuffer(b"SW", np.uint8)  # by state: Sleep is 0, Wake 1


def _rows_bytes(block: np.ndarray, row: np.ndarray, at: int, numbers: np.ndarray) -> np.ndarray:
    """The text of ``block``, rows of template ``row`` with raw digits written, once
    ``numbers`` are written right-aligned from column ``at`` without leading zeros."""
    widths = 1 + np.searchsorted(_POW10[1:], numbers, side="right")
    end = at + _NUMBER_WIDTH
    for k in range(1, widths.max() + 1):
        numbers, block[:, end - k] = np.divmod(numbers, 10)
    block |= row
    columns = np.arange(row.size)
    kept = (columns < at) | (columns >= end - np.arange(_NUMBER_WIDTH + 1)[:, None])  # by width
    return block[kept[widths]]


def write_epoch_csv(series: EpochSeries, path) -> None:
    """Write ``timestamp,count`` rows; row i is ``format_timestamp(series.timestamp(i))``."""
    # Sub-second parts are truncated on output and every step is whole
    # seconds, so the rows count on from the truncated start time.
    base = (series.start_time.replace(microsecond=0) - _UNIX_EPOCH) // _ONE_SECOND
    with open(path, "wb") as fh:
        fh.write(b"timestamp,count\n")
        for lo in range(0, len(series), _WRITE_CHUNK):
            counts = series.counts[lo : lo + _WRITE_CHUNK]
            seconds = base + np.arange(lo, lo + counts.size, dtype=np.int64) * series.epoch_seconds
            stamps = seconds.view("datetime64[s]")
            days = stamps.astype("datetime64[D]")
            months = days.astype("datetime64[M]")
            year, month = np.divmod(months.astype(np.int64) + 1970 * 12, 12)
            day = (days - months).astype(np.int64) + 1
            hour, second = np.divmod((stamps - days).astype(np.int64), 3600)
            fields = (year // 100, year % 100, month + 1, day, hour, second // 60, second % 60)
            block = np.tile(_EPOCH_ROW, (counts.size, 1))
            for i, value in zip(_STAMP_FIELDS, fields):
                block[:, i], block[:, i + 1] = np.divmod(value, 10)
            fh.write(_rows_bytes(block, _EPOCH_ROW, len(_STAMP) + 1, counts))


def read_label_csv(path, expected_len: int, epoch_seconds: int = 30) -> StateSequence:
    """Read a label CSV covering indices 0..expected_len-1 exactly once.

    A one-pass reader parses the file a chunk of rows at a time
    (``_checked_chunks``), and numpy reads each chunk as bytes
    (``_label_rows``): every index must be 1 to 18 digits and in range and
    every state ``S`` or ``W``, and ``expected_len`` rows that set every
    index hold no duplicate.  Any file it cannot prove good in that way is
    read by the per-row scan ``_scan_label_csv`` instead, which defines what
    the format accepts and names the first bad row in its error.
    """
    labels = _parse_label_csv(path, expected_len, epoch_seconds)
    return _scan_label_csv(path, expected_len, epoch_seconds) if labels is None else labels


_UNSET = 2  # the state of an index no label row has set yet


def _label_rows(chunk: bytes, expected_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices, and whether each is Wake, of a chunk of label rows.

    Every row must be an index of 1 to 18 digits below ``expected_len``, a
    comma, ``S`` or ``W`` and a newline; else _Unproven.
    """
    a = np.frombuffer(chunk, dtype=np.uint8)
    digits = a - _ZERO
    # Each row's non-digit bytes are its comma, state and newline, side by side.
    where, got, steps = _row_marks(a, digits, 3)
    wake = got[:, 1] == ord("W")
    got[wake, 1] = ord("S")
    if got.tobytes() != b",S\n" * len(got) or (steps[:, 1:] != 1).any():
        raise _Unproven
    indices = _digit_values(digits, where[:, 0], steps[:, 0] - 1)
    if indices.max() >= expected_len:
        raise _Unproven
    return indices, wake


def _parse_label_csv(path, expected_len: int, epoch_seconds: int) -> StateSequence | None:
    """The one-pass reader: the labels, or None when the row scan must read the file."""
    states = np.full(expected_len, _UNSET, dtype=np.int8)
    n_rows = 0
    try:
        with open(path, "rb") as fh:
            for chunk in _checked_chunks(fh, b"epoch_index,state\n"):
                indices, wake = _label_rows(chunk, expected_len)
                states[indices] = wake
                n_rows += indices.size
    except _Unproven:
        return None
    # expected_len rows that set every index set none twice
    if n_rows != expected_len or (states == _UNSET).any():
        return None
    return StateSequence(states, epoch_seconds)


def _scan_label_csv(path, expected_len: int, epoch_seconds: int) -> StateSequence:
    """Read a label CSV row by row: the definition of the format and its errors."""
    states = bytearray([_UNSET]) * expected_len
    for row_no, (index, token) in _data_rows(path, ["epoch_index", "state"]):
        if (idx := _ascii_int(index)) is None:
            raise FormatError(f"{path}: row {row_no}: bad epoch index {index!r}")
        if not 0 <= idx < expected_len:
            raise FormatError(f"{path}: row {row_no}: index {idx} outside 0..{expected_len - 1}")
        if states[idx] != _UNSET:
            raise FormatError(f"{path}: row {row_no}: duplicate index {idx}")
        token = token.strip()
        if token not in _LETTER_STATES:
            raise FormatError(f"{path}: row {row_no}: unknown state token {token!r}")
        states[idx] = _LETTER_STATES[token]
    if unset := states.count(_UNSET):
        raise FormatError(f"{path}: {expected_len - unset} labeled epochs, expected {expected_len}")
    return StateSequence(np.frombuffer(states, dtype=np.int8), epoch_seconds)


def write_label_csv(states: StateSequence, path) -> None:
    """Write ``epoch_index,state`` rows, _WRITE_CHUNK rows to each write."""
    with open(path, "wb") as fh:
        fh.write(b"epoch_index,state\n")
        for lo in range(0, len(states), _WRITE_CHUNK):
            chunk = states.states[lo : lo + _WRITE_CHUNK]
            block = np.tile(_LABEL_ROW, (chunk.size, 1))
            block[:, -2] = _LETTERS[chunk]
            fh.write(_rows_bytes(block, _LABEL_ROW, 0, np.arange(lo, lo + chunk.size)))


def read_key_values(path, keys, convert) -> dict:
    """Read a ``key=value`` file that sets each of ``keys`` exactly once.

    ``convert`` turns each raw value into its typed form; a ValueError it
    raises becomes a FormatError naming the line, and a FormatError it
    raises gets the file and line as a prefix.  Unknown, repeated and
    missing keys raise FormatError too.
    """
    values = {}
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}: line {line_no}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise FormatError(f"{path}: line {line_no}: unknown key {key!r}")
            if key in values:
                raise FormatError(f"{path}: line {line_no}: repeated key {key!r}")
            try:
                values[key] = convert(raw)
            except FormatError as exc:
                raise FormatError(f"{path}: line {line_no}: {exc}") from None
            except ValueError:
                raise FormatError(f"{path}: line {line_no}: bad value {raw!r}") from None
    missing = [k for k in keys if k not in values]
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    return values


def write_key_values(path, items) -> None:
    """Write ``(key, value)`` pairs as ``key=value`` lines, in order.

    Booleans are written ``true``/``false``, floats with the 17
    significant digits that round-trip a float64 exactly, anything else
    as ``str(value)``.
    """
    with open(path, "w") as fh:
        for key, value in items:
            if isinstance(value, (bool, np.bool_)):
                value = str(value).lower()
            elif isinstance(value, float):
                value = format(value, ".17g")
            fh.write(f"{key}={value}\n")


_WINDOW_KEYS = ("lights_out", "lights_on", "go_to_bed", "get_up")


def read_window_file(path, series: EpochSeries) -> StudyWindow:
    """Read a window sidecar and convert its timestamps to epoch indices.

    Timestamps are floored to the containing epoch.
    """
    values = read_key_values(path, _WINDOW_KEYS, parse_timestamp)
    window = StudyWindow(
        **{
            key: int((ts - series.start_time).total_seconds() // series.epoch_seconds)
            for key, ts in values.items()
        }
    )
    window.check_bounds(len(series))
    return window


def log_transform(series: EpochSeries) -> LogSeries:
    """Natural-log transform: values[t] = ln(counts[t] + 1).

    A zero count maps to a bit-exact zero log value, which is what lets
    the sleep emission detect the zero-inflation point mass exactly.
    """
    return LogSeries(np.log1p(series.counts.astype(np.float64)), series.epoch_seconds)
