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
from operator import sub

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
    """Ordered non-negative activity counts at a fixed epoch length."""

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

    def to_letters(self) -> list[str]:
        return ["SW"[s] for s in self.states.tolist()]  # Sleep is 0, Wake 1

    @classmethod
    def from_letters(cls, letters, epoch_seconds: int) -> "StateSequence":
        try:
            states = [_LETTER_STATES[s] for s in letters]
        except KeyError as exc:
            raise FormatError(f"unknown state token {exc.args[0]!r}") from None
        return cls(np.array(states, dtype=np.int8), epoch_seconds)


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
    return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


@contextmanager
def _open_text(path):
    """Open a text input as UTF-8; a decode error becomes a FormatError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from None


_READ_CHUNK_BYTES = 1 << 15  # bytes of rows read and checked at a time; bounds the strings held

# The bytes a proven field may hold: no whitespace, control character,
# quote, comma or non-ASCII byte, so csv, str.split and str.strip agree on it.
_FIELD_BYTES = bytes(b for b in range(0x21, 0x7F) if b not in b'",')


class _Unproven(Exception):
    """The one-pass check could not prove part of a file well formed."""


def _checked_chunks(fh, header: bytes):
    """Yield the text after ``header``, _READ_CHUNK_BYTES and the rest of a line at a time.

    A chunk is proven to be rows of two fields when it ends in a newline
    and deleting its field bytes leaves a comma followed by a newline for
    each row, and nothing else.  Raises _Unproven on the first chunk that
    is not, and when the header line is not exactly ``header``.
    """
    if fh.readline() != header:
        raise _Unproven
    # One read and one readline hold no per-line objects, as readlines does.
    while chunk := fh.read(_READ_CHUNK_BYTES) + fh.readline():
        rows = chunk.count(b"\n")
        if not chunk.endswith(b"\n") or chunk.translate(None, _FIELD_BYTES) != b",\n" * rows:
            raise _Unproven
        yield chunk.decode("ascii")


def _columns(text: str) -> tuple[list[str], list[str]]:
    """The two columns of proven rows."""
    fields = text.replace("\n", ",").split(",")
    return fields[0:-1:2], fields[1::2]


def read_epoch_csv(path) -> EpochSeries:
    """Read an epoch CSV, inferring epoch_seconds from row spacing.

    A one-pass reader parses the file a chunk of rows at a time: each
    chunk's shape is checked with bytes methods (``_checked_chunks``),
    timestamps go through ``datetime.fromisoformat`` after the same
    ``Z`` rewrite as ``parse_timestamp``, every spacing must equal the first
    (across chunk boundaries too), and counts must fit a non-negative
    int64.  Any file it cannot prove good in that way, from a quoted field,
    a CR or a blank row to a bad value, is read by the per-row scan
    ``_scan_epoch_csv`` instead, which defines what the format accepts and
    names the first bad row in its error.

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
    stamps = []
    first = step = None
    try:
        with open(path, "rb") as fh:
            for text in _checked_chunks(fh, b"timestamp,count\n"):
                # A count holding a Z is no integer before the rewrite or after it.
                stamp_column, count_column = _columns(text.replace("Z", "+00:00"))
                # The last timestamp carried over checks the spacing across chunks.
                stamps = stamps[-1:] + list(map(datetime.fromisoformat, stamp_column))
                if first is None:
                    first = stamps[0]
                if step is None and len(stamps) > 1:
                    step = stamps[1] - stamps[0]
                # A naive and an aware timestamp side by side raise TypeError.
                if list(map(sub, stamps[1:], stamps[:-1])).count(step) != len(stamps) - 1:
                    raise _Unproven
                counts.extend(map(int, count_column))
        if step is None or step <= timedelta(0) or step.microseconds:
            raise _Unproven
        epoch_seconds = int(step.total_seconds())
        return EpochSeries(_as_utc(first), epoch_seconds, np.frombuffer(counts, dtype=np.int64))
    except (_Unproven, InputError, ValueError, TypeError, OverflowError):
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


def _scan_epoch_csv(path) -> EpochSeries:
    """Read an epoch CSV row by row: the definition of the format and its errors."""
    timestamps: list[datetime] = []
    row_nos = array("q")  # the row number of each timestamp, for spacing errors
    counts: list[int] = []
    for row_no, (stamp, count_text) in _data_rows(path, ["timestamp", "count"]):
        try:
            timestamps.append(parse_timestamp(stamp))
        except FormatError as exc:
            raise FormatError(f"{path}: row {row_no}: {exc}") from None
        row_nos.append(row_no)
        try:
            count = int(count_text)
        except ValueError:
            raise FormatError(
                f"{path}: row {row_no}: count {count_text!r} is not an integer"
            ) from None
        if count < 0:
            raise FormatError(f"{path}: row {row_no}: negative count {count}")
        if count > _MAX_COUNT:
            raise FormatError(f"{path}: row {row_no}: count {count} above 2**63 - 1")
        counts.append(count)
    if not counts:
        raise EmptyInputError(f"{path}: no data rows")
    if len(counts) == 1:
        raise EmptyInputError(f"{path}: one data row; epoch spacing cannot be inferred")
    spacing = (timestamps[1] - timestamps[0]).total_seconds()
    if spacing <= 0 or spacing != int(spacing):
        raise FormatError(
            f"{path}: row {row_nos[1]}: non-positive or fractional epoch spacing"
        )
    epoch_seconds = int(spacing)
    if not _valid_epoch_seconds(epoch_seconds):
        raise FormatError(
            f"{path}: row {row_nos[1]}: epoch spacing {epoch_seconds} s is not supported: "
            f"{_SUPPORTED_EPOCH_SECONDS_MSG}"
        )
    for i in range(1, len(timestamps)):
        step = (timestamps[i] - timestamps[i - 1]).total_seconds()
        if step != spacing:
            raise FormatError(
                f"{path}: row {row_nos[i]}: spacing {step:g} s differs from {epoch_seconds} s"
            )
    return EpochSeries(timestamps[0], epoch_seconds, np.array(counts, dtype=np.int64))


_WRITE_CHUNK = 8192  # rows formatted at a time; bounds the strings held at once


def write_epoch_csv(series: EpochSeries, path) -> None:
    """Write ``timestamp,count`` rows; row i is ``format_timestamp(series.timestamp(i))``."""
    # Sub-second parts are truncated on output and every step is whole
    # seconds, so the range can start from the truncated start time.
    start = series.start_time.astimezone(timezone.utc).replace(tzinfo=None, microsecond=0)
    base = np.datetime64(start, "s")
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,count\n")
        for lo in range(0, len(series), _WRITE_CHUNK):
            counts = series.counts[lo : lo + _WRITE_CHUNK].tolist()
            steps = np.arange(lo, lo + len(counts), dtype=np.int64) * series.epoch_seconds
            stamps = np.datetime_as_string(base + steps, unit="s").tolist()
            fh.writelines(f"{ts}Z,{count}\n" for ts, count in zip(stamps, counts))


def read_label_csv(path, expected_len: int, epoch_seconds: int = 30) -> StateSequence:
    """Read a label CSV covering indices 0..expected_len-1 exactly once.

    A one-pass reader parses the file a chunk of rows at a time: each
    chunk's shape is checked with bytes methods (``_checked_chunks``), every
    index must be an integer in range and every state ``S`` or ``W``, and
    ``expected_len`` rows that set every index hold no duplicate.  Any file
    it cannot prove good in that way is read by the per-row scan
    ``_scan_label_csv`` instead, which defines what the format accepts and
    names the first bad row in its error.
    """
    labels = _parse_label_csv(path, expected_len, epoch_seconds)
    return _scan_label_csv(path, expected_len, epoch_seconds) if labels is None else labels


_UNSET = 2  # the state of an index no label row has set yet


def _parse_label_csv(path, expected_len: int, epoch_seconds: int) -> StateSequence | None:
    """The one-pass reader: the labels, or None when the row scan must read the file."""
    states = np.full(expected_len, _UNSET, dtype=np.int8)
    try:
        with open(path, "rb") as fh:
            chunks = _checked_chunks(fh, b"epoch_index,state\n")
            n_rows = sum(_set_states(text, states) for text in chunks)
    except (_Unproven, ValueError, OverflowError):
        return None
    # expected_len rows that set every index set none twice
    if n_rows != expected_len or (states == _UNSET).any():
        return None
    return StateSequence(states, epoch_seconds)


def _set_states(text: str, states: np.ndarray) -> int:
    """Set the states a chunk of proven label rows gives; returns its row count."""
    indices, tokens = _columns(text)
    idx = np.fromiter(map(int, indices), dtype=np.int64, count=len(indices))
    if (
        tokens.count("S") + tokens.count("W") != len(tokens)
        or idx.min() < 0
        or idx.max() >= states.size
    ):
        raise _Unproven
    states[idx] = np.frombuffer("".join(tokens).encode("ascii"), dtype=np.uint8) == ord("W")
    return idx.size


def _scan_label_csv(path, expected_len: int, epoch_seconds: int) -> StateSequence:
    """Read a label CSV row by row: the definition of the format and its errors."""
    seen = bytearray(expected_len)
    states = bytearray(expected_len)
    n_rows = 0
    for row_no, (index, token) in _data_rows(path, ["epoch_index", "state"]):
        try:
            idx = int(index)
        except ValueError:
            raise FormatError(f"{path}: row {row_no}: bad epoch index {index!r}") from None
        if not 0 <= idx < expected_len:
            raise FormatError(
                f"{path}: row {row_no}: index {idx} outside 0..{expected_len - 1}"
            )
        if seen[idx]:
            raise FormatError(f"{path}: row {row_no}: duplicate index {idx}")
        token = token.strip()
        if token not in _LETTER_STATES:
            raise FormatError(f"{path}: row {row_no}: unknown state token {token!r}")
        seen[idx] = 1
        states[idx] = _LETTER_STATES[token]
        n_rows += 1
    if n_rows != expected_len:
        raise FormatError(
            f"{path}: {n_rows} labeled epochs, expected {expected_len}"
        )
    return StateSequence(np.frombuffer(states, dtype=np.int8), epoch_seconds)


def write_label_csv(states: StateSequence, path) -> None:
    """Write ``epoch_index,state`` rows, _WRITE_CHUNK rows to each write."""
    letters = states.to_letters()
    with open(path, "w", newline="") as fh:
        fh.write("epoch_index,state\n")
        for lo in range(0, len(letters), _WRITE_CHUNK):
            rows = letters[lo : lo + _WRITE_CHUNK]
            fh.write("".join([f"{i},{letter}\n" for i, letter in enumerate(rows, lo)]))


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
                raise FormatError(
                    f"{path}: line {line_no}: bad value {raw!r}"
                ) from None
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
