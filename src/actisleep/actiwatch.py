"""Actiwatch-style threshold scoring: rescoring plus window detection.

Each epoch's count is combined with its neighbors into a total score:
neighbors starting within 1 minute contribute a fifth of their count,
neighbors beyond 1 minute but within 2 minutes a twenty-fifth.  Sleep
start is the first 10-minute block after go-to-bed whose scores stay at
or below the immobility threshold (4 counts per minute) with at most one
minute's worth of epochs above; sleep end is found symmetrically by
scanning backward from get-up with a 6-minute block, a 6 counts-per-
minute threshold, and two epochs' tolerance.  Everything between the two
endpoints (inclusive) is scored sleep, the rest wake.

Thresholds are stated per minute and converted to per-epoch values, so
the semantics are epoch-length invariant.  By default they apply to the
rescored totals; ``raw_thresholds`` switches to raw counts for
sensitivity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .series import EpochSeries, State, StateSequence, StudyWindow

_SUPPORTED_EPOCH_SECONDS = (15, 30, 60, 120)
# far longer than any recording, so a window or tolerance capped to it acts
# the same as it would uncapped, and a huge one still counts to finite epochs
_MAX_SPAN_SECONDS = 1e15


@dataclass(frozen=True)
class AsConfig:
    """Thresholds and window lengths for the Actiwatch-style scorer."""

    immobility_start_cpm: float = 4.0
    immobility_end_cpm: float = 6.0
    start_window_minutes: float = 10.0
    end_window_minutes: float = 6.0
    start_tolerance_minutes: float = 1.0
    end_tolerance_epochs: int = 2
    raw_thresholds: bool = False

    def __post_init__(self) -> None:
        # NaN compares false, so each check is written to fail on it
        for value in (
            self.immobility_start_cpm,
            self.immobility_end_cpm,
            self.start_window_minutes,
            self.end_window_minutes,
        ):
            if not 0 < value < np.inf:
                raise ConfigError("thresholds and windows must be positive and finite")
        for value in (self.start_tolerance_minutes, self.end_tolerance_epochs):
            if not 0 <= value < np.inf:
                raise ConfigError("tolerances must be non-negative and finite")


@dataclass(frozen=True)
class AsResult:
    """Scored labels plus endpoint diagnostics."""

    states: StateSequence
    sleep_start: int | None
    sleep_end: int | None
    all_wake_fallback: bool


def rescore(series: EpochSeries) -> np.ndarray:
    """Neighborhood-weighted total score per epoch.

    Neighbors at an offset in (0, 60] seconds contribute count/5, those
    in (60, 120] seconds contribute count/25, on both sides, truncated
    at the series boundaries.
    """
    if series.epoch_seconds not in _SUPPORTED_EPOCH_SECONDS:
        raise ConfigError(
            f"rescoring supports epoch lengths {_SUPPORTED_EPOCH_SECONDS}, "
            f"got {series.epoch_seconds}"
        )
    counts = series.counts.astype(np.float64)
    totals = counts.copy()
    max_offset = 120 // series.epoch_seconds
    for k in range(1, max_offset + 1):
        offset_seconds = k * series.epoch_seconds
        weight = 5.0 if offset_seconds <= 60 else 25.0
        totals[:-k] += counts[k:] / weight
        totals[k:] += counts[:-k] / weight
    return totals


def _window_epochs(minutes: float, epoch_seconds: int) -> int:
    """Block length in epochs; an empty block would qualify trivially."""
    window = round(min(minutes * 60.0, _MAX_SPAN_SECONDS) / epoch_seconds)
    if window < 1:
        raise ConfigError(
            f"a {minutes:g}-minute window rounds to no {epoch_seconds} s epoch"
        )
    return window


def _quiet_blocks(scores, epoch_seconds, cpm, minutes, tolerance) -> tuple[np.ndarray, int]:
    """The start of every block of ``minutes`` with at most ``tolerance``
    epochs above ``cpm`` per minute, ascending, and the block's length."""
    window = _window_epochs(minutes, epoch_seconds)
    loud = np.asarray(scores, dtype=np.float64) > cpm * epoch_seconds / 60.0
    above = np.concatenate([[0], np.cumsum(loud)])
    return np.flatnonzero(above[window:] - above[:-window] <= tolerance), window


def find_sleep_start(
    scores: np.ndarray, epoch_seconds: int, go_to_bed: int, cfg: AsConfig
) -> int | None:
    """First index from go-to-bed whose immobility block qualifies, or None.

    A block of ``start_window_minutes`` qualifies when at most
    ``start_tolerance_minutes`` worth of epochs score above the
    per-epoch immobility threshold.
    """
    tolerance = int(min(cfg.start_tolerance_minutes * 60.0, _MAX_SPAN_SECONDS) // epoch_seconds)
    cpm, minutes = cfg.immobility_start_cpm, cfg.start_window_minutes
    starts, _ = _quiet_blocks(scores, epoch_seconds, cpm, minutes, tolerance)
    if go_to_bed < 0 or go_to_bed >= len(scores):
        raise InputError("go_to_bed outside series bounds")
    i = np.searchsorted(starts, go_to_bed)
    return int(starts[i]) if i < starts.size else None


def find_sleep_end(
    scores: np.ndarray, epoch_seconds: int, get_up: int, cfg: AsConfig
) -> int | None:
    """Last epoch of the latest qualifying block at or before get-up, or None."""
    cpm, minutes = cfg.immobility_end_cpm, cfg.end_window_minutes
    starts, window = _quiet_blocks(scores, epoch_seconds, cpm, minutes, cfg.end_tolerance_epochs)
    if get_up < 0 or get_up >= len(scores):
        raise InputError("get_up outside series bounds")
    i = np.searchsorted(starts, get_up + 1 - window, side="right")
    return int(starts[i - 1]) + window - 1 if i else None


def as_score(series: EpochSeries, window: StudyWindow, cfg: AsConfig | None = None) -> AsResult:
    """Score a recording: sleep on [sleep_start, sleep_end], wake elsewhere.

    If either endpoint is missing, or they cross, the whole sequence is
    wake and the fallback flag is set.
    """
    cfg = cfg or AsConfig()
    window.check_bounds(len(series))
    scores = (
        series.counts.astype(np.float64) if cfg.raw_thresholds else rescore(series)
    )
    start = find_sleep_start(scores, series.epoch_seconds, window.go_to_bed, cfg)
    end = find_sleep_end(scores, series.epoch_seconds, window.get_up, cfg)
    states = np.full(len(series), State.WAKE, dtype=np.int8)
    fallback = start is None or end is None or end < start
    if not fallback:
        states[start : end + 1] = State.SLEEP
    return AsResult(
        states=StateSequence(states, series.epoch_seconds),
        sleep_start=start,
        sleep_end=end,
        all_wake_fallback=fallback,
    )
