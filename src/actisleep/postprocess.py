"""Run-length smoothing of a decoded sleep/wake sequence.

Same-state runs shorter than a duration threshold (15 minutes by
default) are iteratively absorbed into their neighbors so that only
stable bouts survive.  The shortest offending run goes first (earliest
on ties).  Runs alternate state, so both neighbors of an interior run
share one state: absorbing it merges the neighbor, the run and the
other neighbor into one run.  A boundary run takes its single
neighbor's state.  The run list shrinks until every run meets the
threshold or a single run remains.  A heap keyed (length, start) over a
linked list of runs makes this O(R log R) in the number of runs R.
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from .errors import InputError
from .series import StateSequence

DEFAULT_MIN_MINUTES = 15.0


def _run_arrays(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of every maximal same-state run of non-empty ``states``."""
    s = np.asarray(states)
    starts = np.concatenate(([0], np.flatnonzero(s[1:] != s[:-1]) + 1))
    return starts, np.diff(starts, append=s.size)


def smooth(states: StateSequence, min_minutes: float = DEFAULT_MIN_MINUTES) -> StateSequence:
    """Absorb same-state runs shorter than ``min_minutes``.

    Runs lasting at least ``min_minutes`` survive; strictly shorter runs
    are relabeled and merged until none remain (or the whole sequence is
    one run).  The output has the same length as the input and the
    operation is idempotent.  ``min_minutes`` must be finite and >= 0
    (InputError otherwise).
    """
    if not 0 <= min_minutes < np.inf:  # also false for NaN
        raise InputError(f"min_minutes must be non-negative and finite, got {min_minutes}")
    min_epochs = min_minutes * 60.0 / states.epoch_seconds
    starts, run_lengths = _run_arrays(states.states)
    n_runs = len(starts)
    # runs are numbered in start order, so (length, index) orders like
    # (length, start); an absorbed run's length drops to 0 and a kept
    # run's only grows, so a heap entry is stale once its length is off
    length = run_lengths.tolist()
    first_state = int(states.states[0])
    # doubly linked list of live runs; arrays hold the links at 8 bytes
    # each, where lists would also hold one int object per link
    prev = array("q", range(-1, n_runs - 1))
    nxt = array("q", range(1, n_runs + 1))
    nxt[-1] = -1
    heap = [(n, i) for i, n in enumerate(length) if n < min_epochs]
    heapq.heapify(heap)
    while heap and n_runs > 1:
        n, i = heapq.heappop(heap)
        if length[i] != n:
            continue
        p, q = prev[i], nxt[i]
        if p < 0:  # first run: it takes the next run's state
            first_state ^= 1
            keep, absorbed = i, (q,)
        elif q < 0:  # last run
            keep, absorbed = p, (i,)
        else:  # interior: both neighbors share one state
            keep, absorbed = p, (i, q)
        for j in absorbed:
            length[keep] += length[j]
            length[j] = 0
            nxt[keep] = nxt[j]
        if nxt[keep] >= 0:
            prev[nxt[keep]] = keep
        n_runs -= len(absorbed)
        if length[keep] < min_epochs:
            heapq.heappush(heap, (length[keep], keep))
    kept = np.asarray(length)
    kept = kept[kept > 0]
    labels = ((first_state + np.arange(len(kept))) % 2).astype(np.int8)
    out = np.repeat(labels, kept)
    return StateSequence(out, states.epoch_seconds)
