"""Seeded synthetic actigraphy sampled from a fully specified HMM.

States follow the Markov chain; each sleep epoch emits exactly zero with
probability alpha and otherwise a non-negative draw from the sleep
Gaussian, each wake epoch a non-negative draw from the wake Gaussian
(rejection sampling below zero).  The sampled log value becomes an
integer count via round(exp(v) - 1), so fixtures flow through the same
ingest path as real data; the rounding perturbation is acknowledged in
fitting-recovery tolerances.

The random source is numpy's PCG64 generator seeded from the spec, so
identical specs produce bit-identical output on a platform.  Table-based
default parameters matching typical wrist-actigraphy fits are exposed as
``reference_params``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .emissions import SleepEmission, WakeEmission
from .errors import InputError
from .hmm import HmmParams
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


def check_seed(seed: int) -> None:
    """Raise InputError for a seed numpy's PCG64 refuses: a negative one."""
    if seed < 0:
        raise InputError("seed must be >= 0")


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to reproduce one synthetic recording."""

    params: HmmParams
    t_epochs: int
    epoch_seconds: int = 30
    seed: int = 0
    start_time: datetime = field(default=DEFAULT_START_TIME)

    def __post_init__(self) -> None:
        if self.t_epochs < 1:
            raise InputError("t_epochs must be >= 1")
        check_seed(self.seed)


def _sample_states(params: HmmParams, t_epochs: int, rng: np.random.Generator) -> np.ndarray:
    u = memoryview(rng.random(t_epochs))  # Python floats per index, no list of them
    # P(next state is Sleep | current state), indexed by Sleep 0 / Wake 1
    p_sleep = (float(params.a[0, 0]), float(params.a[1, 0]))
    states = bytearray(t_epochs)
    s = 1 if u[0] >= params.pi[0] else 0
    states[0] = s
    for t in range(1, t_epochs):
        s = 0 if u[t] < p_sleep[s] else 1
        states[t] = s
    return np.frombuffer(states, dtype=np.int8)


def sample_log_values(
    states: np.ndarray, params: HmmParams, rng: np.random.Generator
) -> np.ndarray:
    """Per-epoch log-scale emission draws for a given state path.

    A sleep epoch takes one uniform draw against alpha; a non-zero sleep
    or any wake epoch then redraws its Gaussian until the value is >= 0.
    """
    random, normal = rng.random, rng.normal
    alpha = float(params.sleep.alpha)
    draws = (
        (float(params.sleep.mu1), float(params.sleep.sigma1)),
        (float(params.wake.mu2), float(params.wake.sigma2)),
    )
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


def _values_to_counts(values: np.ndarray) -> np.ndarray:
    return np.maximum(np.round(np.expm1(values)), 0.0).astype(np.int64)


def simulate(spec: SimSpec) -> tuple[EpochSeries, StateSequence]:
    """Sample one recording with its ground-truth state path."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    states = _sample_states(spec.params, spec.t_epochs, rng)
    values = sample_log_values(states, spec.params, rng)
    series = EpochSeries(spec.start_time, spec.epoch_seconds, _values_to_counts(values))
    return series, StateSequence(states, spec.epoch_seconds)


def simulate_from_states(
    states: StateSequence,
    params: HmmParams,
    seed: int = 0,
    start_time: datetime = DEFAULT_START_TIME,
) -> EpochSeries:
    """Sample counts for a fixed state path (e.g. a consolidated night)."""
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    values = sample_log_values(states.states, params, rng)
    return EpochSeries(start_time, states.epoch_seconds, _values_to_counts(values))
