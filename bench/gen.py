"""Seeded input generator for the benchmark.

Inputs are drawn with vectorised numpy from the benchmark's own copy of
the reference parameters, so a given seed yields byte-identical files
whatever version of ``actisleep`` the benchmark runs against.  Nothing
here imports ``actisleep``.

Two generators:

- ``fragmented_chain``: the reference two-state Markov chain (mean sleep
  run 25 epochs, mean wake run about 18), about 45 true runs per 1,000
  epochs and about 43 % zero counts.
- ``circadian_week``: one consolidated 7-9 h sleep block per day with
  brief awakenings, and short rest bouts during the day, about 15 true
  runs per 1,000 epochs.

Emissions follow the paper's model on log(count + 1): a sleep epoch is
an exact zero with probability ``alpha`` and otherwise a non-negative
Gaussian draw; a wake epoch is a non-negative Gaussian draw.  Counts are
``round(exp(v) - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPOCH_SECONDS = 30
EPOCHS_PER_DAY = 86400 // EPOCH_SECONDS
SLEEP, WAKE = 0, 1

# Reference parameters (cohort means), copied rather than imported.
REF_A = ((0.960, 0.040), (0.055, 0.945))
REF_PI = (0.5, 0.5)
REF_ALPHA, REF_MU1, REF_SIGMA1 = 0.731, 2.486, 1.248
REF_MU2, REF_SIGMA2 = 4.803, 0.866


@dataclass(frozen=True)
class Recording:
    """One generated recording: counts, true states and its start time."""

    counts: np.ndarray
    states: np.ndarray
    start: str  # ISO-8601 UTC, second resolution, no zone suffix

    def __len__(self) -> int:
        return int(self.counts.size)


def _alternating_runs(first: int, mean_len: tuple, total: int, rng) -> np.ndarray:
    """States of alternating geometric runs covering at least ``total`` epochs."""
    n = 2 * (total // int(min(mean_len)) + 8)
    mean = np.where((np.arange(n) + first) % 2 == SLEEP, mean_len[SLEEP], mean_len[WAKE])
    lengths = rng.geometric(1.0 / mean)
    if lengths.sum() < total:  # n is several times the expected need
        raise RuntimeError("run lengths fell short of the recording length")
    labels = (np.arange(lengths.size) + first) % 2
    return np.repeat(labels, lengths)[:total].astype(np.int8)


def _nonnegative_normal(mu: float, sigma: float, n: int, rng) -> np.ndarray:
    """Draws from N(mu, sigma) rejected below zero, vectorised."""
    out = rng.normal(mu, sigma, n)
    bad = np.flatnonzero(out < 0.0)
    while bad.size:
        out[bad] = rng.normal(mu, sigma, bad.size)
        bad = bad[out[bad] < 0.0]
    return out


def _emit_counts(states: np.ndarray, rng) -> np.ndarray:
    sleep = states == SLEEP
    values = np.empty(states.size)
    values[~sleep] = _nonnegative_normal(REF_MU2, REF_SIGMA2, int(np.sum(~sleep)), rng)
    n_sleep = int(np.sum(sleep))
    zero = rng.random(n_sleep) < REF_ALPHA
    sleep_values = _nonnegative_normal(REF_MU1, REF_SIGMA1, n_sleep, rng)
    sleep_values[zero] = 0.0
    values[sleep] = sleep_values
    return np.maximum(np.round(np.expm1(values)), 0.0).astype(np.int64)


def fragmented_chain(t_epochs: int, rng, start: str) -> Recording:
    """A recording drawn from the reference-parameter Markov chain."""
    first = SLEEP if rng.random() < REF_PI[SLEEP] else WAKE
    mean_len = (1.0 / REF_A[SLEEP][WAKE], 1.0 / REF_A[WAKE][SLEEP])
    states = _alternating_runs(first, mean_len, t_epochs, rng)
    return Recording(_emit_counts(states, rng), states, start)


def circadian_week(days: int, rng, start: str) -> Recording:
    """Consolidated nights: one 7-9 h sleep block a day, starting at noon.

    Inside the block, sleep runs average 80 epochs and awakenings 3;
    outside it, wake runs average 200 epochs and rest bouts 8.
    """
    day_states = []
    for _ in range(days):
        block = int(rng.integers(7 * 120, 9 * 120 + 1))  # 120 epochs per hour
        onset = int(rng.integers(9 * 120, 12 * 120))  # 21:00-24:00
        day = _alternating_runs(WAKE, (8.0, 200.0), EPOCHS_PER_DAY, rng)
        day[onset : onset + block] = _alternating_runs(SLEEP, (80.0, 3.0), block, rng)
        day_states.append(day)
    states = np.concatenate(day_states)
    return Recording(_emit_counts(states, rng), states, start)


def timestamps(start: str, n: int) -> np.ndarray:
    """ISO-8601 UTC timestamps of ``n`` epochs from ``start``."""
    base = np.datetime64(start, "s")
    stamps = base + np.arange(n, dtype=np.int64) * np.timedelta64(EPOCH_SECONDS, "s")
    return np.char.add(np.datetime_as_string(stamps, unit="s"), "Z")


def write_epoch_csv(rec: Recording, path) -> None:
    stamps = timestamps(rec.start, len(rec)).tolist()
    body = "\n".join(f"{ts},{c}" for ts, c in zip(stamps, rec.counts.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,count\n" + body + "\n")


def label_text(states: np.ndarray) -> str:
    """The exact label CSV text ``actisleep`` writes for ``states``."""
    letters = np.where(np.asarray(states) == SLEEP, "S", "W").tolist()
    return "epoch_index,state\n" + "".join(f"{i},{s}\n" for i, s in enumerate(letters))


def write_label_csv(states: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(label_text(states))


def write_true_params(path) -> None:
    """The reference parameters in the ``key=value`` parameter-file format."""
    values = {
        "a11": REF_A[0][0],
        "a12": REF_A[0][1],
        "a21": REF_A[1][0],
        "a22": REF_A[1][1],
        "pi_sleep": REF_PI[0],
        "pi_wake": REF_PI[1],
        "alpha": REF_ALPHA,
        "mu1": REF_MU1,
        "sigma1": REF_SIGMA1,
        "mu2": REF_MU2,
        "sigma2": REF_SIGMA2,
    }
    with open(path, "w") as fh:
        fh.writelines(f"{k}={v:.17g}\n" for k, v in values.items())


def write_window(path, start: str, n_epochs: int) -> None:
    """A study window covering the whole recording.

    Go-to-bed is 30 minutes in and get-up 30 minutes before the end, so
    the comparator's immobility search has the whole recording to find a
    sleep start and end in.
    """
    stamps = timestamps(start, n_epochs + 1).tolist()
    with open(path, "w") as fh:
        fh.write(f"lights_out={stamps[0]}\n")
        fh.write(f"lights_on={stamps[n_epochs]}\n")
        fh.write(f"go_to_bed={stamps[60]}\n")
        fh.write(f"get_up={stamps[n_epochs - 60]}\n")
