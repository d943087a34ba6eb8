"""Seeded synthetic actigraphy sampled from a fully specified HMM.

States follow the Markov chain; each sleep epoch emits exactly zero with
probability alpha and otherwise a non-negative draw from the sleep
Gaussian, each wake epoch a non-negative draw from the wake Gaussian
(rejection sampling below zero).  The sampled log value becomes an
integer count via round(exp(v) - 1), so fixtures flow through the same
ingest path as real data; the rounding perturbation is acknowledged in
fitting-recovery tolerances.

The random source is numpy's PCG64 generator built by ``seeded_rng``,
the one place in the package that seeds a generator, so identical
arguments produce bit-identical output on a platform.  Table-based
default parameters matching typical wrist-actigraphy fits are exposed as
``reference_params``.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from .emissions import SleepEmission, WakeEmission, log_ndtr
from .errors import InputError
from .hmm import HmmParams, _traceback
from .series import EpochSeries, StateSequence

DEFAULT_START_TIME = datetime(2012, 5, 1, 21, 30, 0, tzinfo=timezone.utc)


def reference_params() -> HmmParams:
    """Cohort-mean parameters used as simulation defaults."""
    return HmmParams(
        a=np.array([[0.960, 0.040], [0.055, 0.945]]),
        sleep=SleepEmission(alpha=0.731, mu1=2.486, sigma1=1.248),
        wake=WakeEmission(mu2=4.803, sigma2=0.866),
        pi=np.array([0.5, 0.5]),
    )


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator for ``seed``; InputError for a negative one, which PCG64 refuses."""
    if seed < 0:
        raise InputError("seed must be >= 0")
    return np.random.Generator(np.random.PCG64(seed))


def _sample_states(params: HmmParams, t_epochs: int, rng: np.random.Generator) -> np.ndarray:
    # step t sends state s to Sleep iff u[t] < a[s, 0]: reversed, these maps are backpointers
    u = rng.random(t_epochs)
    maps = np.empty((2, t_epochs), dtype=np.int8)
    maps[:, 1:] = u[:0:-1] >= params.a[:, :1]
    return np.ascontiguousarray(_traceback(maps, int(u[0] >= params.pi[0]))[::-1])


def sample_log_values(
    states: np.ndarray, params: HmmParams, rng: np.random.Generator
) -> np.ndarray:
    """Per-epoch log-scale emission draws for a given state path.

    A sleep epoch takes one uniform draw against alpha; a non-zero sleep
    or any wake epoch then redraws its Gaussian until the value is >= 0.
    A Gaussian needing over 1,000 draws per value on average is refused first.
    """
    random, normal = rng.random, rng.normal
    alpha = float(params.sleep.alpha)
    draws = (
        (float(params.sleep.mu1), float(params.sleep.sigma1)),
        (float(params.wake.mu2), float(params.wake.sigma2)),
    )
    for state, (mu, sigma) in zip(("sleep", "wake"), draws):
        if log_ndtr(mu / sigma) < np.log(1e-3):
            raise InputError(f"the {state} Gaussian is >= 0 with probability below 1e-3")
    values = np.zeros(states.size, dtype=np.float64)
    out = memoryview(values)
    for t, s in enumerate(states.tolist()):  # Sleep is 0, Wake 1
        if s == 0 and random() < alpha:
            continue  # the point mass: the value stays 0.0
        mu, sigma = draws[s]
        while True:
            v = normal(mu, sigma)
            if v >= 0.0:
                break
        out[t] = v
    return values


def _sample_series(
    states: StateSequence, params: HmmParams, rng: np.random.Generator, start_time: datetime
) -> EpochSeries:
    values = sample_log_values(states.states, params, rng)
    with np.errstate(over="ignore"):  # an inf is refused with the other large counts
        counts = np.maximum(np.round(np.expm1(values)), 0.0)
    if np.any(counts >= 2.0**63):
        raise InputError("a simulated count is above 2**63 - 1")
    return EpochSeries(start_time, states.epoch_seconds, counts.astype(np.int64))


def simulate(
    params: HmmParams,
    t_epochs: int,
    *,
    epoch_seconds: int = 30,
    seed: int = 0,
    start_time: datetime = DEFAULT_START_TIME,
) -> tuple[EpochSeries, StateSequence]:
    """Sample one recording with its ground-truth state path."""
    if t_epochs < 1:
        raise InputError("t_epochs must be >= 1")
    rng = seeded_rng(seed)
    truth = StateSequence(_sample_states(params, t_epochs, rng), epoch_seconds)
    return _sample_series(truth, params, rng, start_time), truth


def simulate_from_states(
    states: StateSequence,
    params: HmmParams,
    *,
    seed: int = 0,
    start_time: datetime = DEFAULT_START_TIME,
) -> EpochSeries:
    """Sample counts for a fixed state path (e.g. a consolidated night)."""
    return _sample_series(states, params, seeded_rng(seed), start_time)
