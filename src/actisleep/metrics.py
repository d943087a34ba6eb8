"""Epoch-level agreement statistics and derived sleep variables.

Agreement is computed epoch by epoch against reference labels with sleep
as the positive class: accuracy, sensitivity for sleep, specificity for
sleep (correct wake), and predictive values for sleep and wake.  Any 0/0
rate is reported as None (undefined), never silently zero.

Derived sleep variables cover one analysis window from lights-out
(inclusive) to lights-on (exclusive): total sleep time, sleep latency
(lights-out to first sleep epoch), WASO (wake at or after the first
sleep epoch), and sleep efficiency as a percentage of the window.
Pearson correlation and the paired t-test support across-subject
comparisons of those variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UndefinedStatisticError
from .series import State, StateSequence, StudyWindow


@dataclass(frozen=True)
class Confusion:
    """2x2 epoch counts with the reference as truth and sleep positive."""

    tp_sleep: int
    fn_sleep: int
    fp_sleep: int
    tn_sleep: int

    @property
    def total(self) -> int:
        return self.tp_sleep + self.fn_sleep + self.fp_sleep + self.tn_sleep


@dataclass(frozen=True)
class EpochMetrics:
    """Agreement rates; None marks an undefined (0/0) rate."""

    accuracy: float
    sensitivity_sleep: float | None
    specificity_sleep: float | None
    ppv_sleep: float | None
    ppv_wake: float | None
    confusion: Confusion


@dataclass(frozen=True)
class SleepVariables:
    """Derived sleep variables for one analysis window, in minutes/percent."""

    total_epochs_min: float
    total_sleep_time_min: float
    sleep_latency_min: float
    waso_min: float
    sleep_efficiency_pct: float


def confusion(pred: StateSequence, truth: StateSequence) -> Confusion:
    if len(pred) != len(truth):
        raise InputError(
            f"label length mismatch: predicted {len(pred)}, reference {len(truth)}"
        )
    p = pred.states == State.SLEEP
    t = truth.states == State.SLEEP
    return Confusion(
        tp_sleep=int(np.sum(p & t)),
        fn_sleep=int(np.sum(~p & t)),
        fp_sleep=int(np.sum(p & ~t)),
        tn_sleep=int(np.sum(~p & ~t)),
    )


def _rate(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def epoch_metrics(c: Confusion) -> EpochMetrics:
    if c.total == 0:
        raise InputError("empty confusion table")
    return EpochMetrics(
        accuracy=(c.tp_sleep + c.tn_sleep) / c.total,
        sensitivity_sleep=_rate(c.tp_sleep, c.tp_sleep + c.fn_sleep),
        specificity_sleep=_rate(c.tn_sleep, c.tn_sleep + c.fp_sleep),
        ppv_sleep=_rate(c.tp_sleep, c.tp_sleep + c.fp_sleep),
        ppv_wake=_rate(c.tn_sleep, c.tn_sleep + c.fn_sleep),
        confusion=c,
    )


def sleep_variables(pred: StateSequence, window: StudyWindow) -> SleepVariables:
    """Sleep variables over [lights_out, lights_on).

    With no sleep epoch in the window, latency spans the whole window,
    WASO is zero, and efficiency is zero.
    """
    if window.lights_on > len(pred):
        raise InputError("window exceeds sequence length")
    minutes_per_epoch = pred.epoch_seconds / 60.0
    segment = pred.states[window.lights_out : window.lights_on]
    n_window = segment.size
    sleep_mask = segment == State.SLEEP
    n_sleep = int(np.sum(sleep_mask))
    total_min = n_window * minutes_per_epoch
    tst_min = n_sleep * minutes_per_epoch
    if n_sleep == 0:
        latency_min = total_min
        waso_min = 0.0
        efficiency = 0.0
    else:
        first_sleep = int(np.flatnonzero(sleep_mask)[0])
        latency_min = first_sleep * minutes_per_epoch
        waso_min = int(np.sum(~sleep_mask[first_sleep:])) * minutes_per_epoch
        efficiency = 100.0 * tst_min / total_min
    return SleepVariables(
        total_epochs_min=total_min,
        total_sleep_time_min=tst_min,
        sleep_latency_min=latency_min,
        waso_min=waso_min,
        sleep_efficiency_pct=efficiency,
    )


def _paired_arrays(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise InputError("need two equal-length sequences of length >= 2")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise InputError("values must be finite")
    return xa, ya


def pearson_r(x, y) -> float:
    """Sample Pearson correlation; both sequences need positive variance."""
    xa, ya = _paired_arrays(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        xc = xa - xa.mean()
        yc = ya - ya.mean()
        sx = np.sqrt(np.dot(xc, xc))
        sy = np.sqrt(np.dot(yc, yc))
        sxy = np.dot(xc, yc)
    if not np.all(np.isfinite([sx, sy, sxy])):
        raise InputError("deviations from the mean overflow")
    if sx == 0 or sy == 0:
        raise UndefinedStatisticError("correlation undefined for zero variance")
    return float(np.clip(sxy / (sx * sy), -1.0, 1.0))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction 1 / (1 + d1 / (1 + d2 / (1 + ...))) of I_x(a, b)
    (Numerical Recipes 6.4), by the modified Lentz method.

    It takes under 50 steps for x < (a + 1) / (a + b + 2).
    """
    c, d, f = math.inf, 1.0, 1.0  # the state after the leading 1 / ...
    for m in range(1000):
        for num in (
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
            (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2)),
        ):
            d = 1.0 / ((1.0 + num * d) or 1e-300)  # 1e-300 stands in for a zero
            c = (1.0 + num / c) or 1e-300
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return f


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with a positive integer ``df``.

    That is I_x(a, 1/2), the regularized incomplete beta with a = df/2 at
    x = df / (df + t**2), read from its continued fraction, so a small p
    keeps its relative precision.  The fraction converges fast only for
    x < (a + 1) / (a + 5/2); past that, where t**2 < 3 and p > 0.08, p is
    1 - I_{1-x}(1/2, a), which loses no more than a few ulps there.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a = df / 2
    log_x, log_y = -math.log1p(t2 / df), -math.log1p(df / t2)  # of x and of 1 - x
    # 1 / B(a, 1/2), from B(1/2, 1/2) = pi or B(1, 1/2) = 2
    # by B(k + 1, 1/2) = B(k, 1/2) k / (k + 1/2)
    inv_beta, k = (1 / math.pi, 0.5) if df % 2 else (0.5, 1.0)
    while k < a:
        inv_beta *= (k + 0.5) / k
        k += 1
    # x**a (1 - x)**(1/2) / B(a, 1/2): a times the prefactor of I_x(a, 1/2)
    # and half that of I_{1-x}(1/2, a)
    front = math.exp(a * log_x + 0.5 * log_y) * inv_beta
    if t2 * (a + 1) > 3 * a:  # x < (a + 1) / (a + 5/2)
        return front / a * _beta_fraction(a, 0.5, math.exp(log_x))
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, math.exp(log_y))


def paired_t(x, y) -> tuple[float, int, float]:
    """Paired t-test: (t statistic, degrees of freedom, two-sided p)."""
    xa, ya = _paired_arrays(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        d = xa - ya
        mean = float(d.mean())
        sd = float(np.std(d, ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise InputError("paired differences overflow")
    if sd == 0:
        raise UndefinedStatisticError("paired t undefined: zero-variance differences")
    n = d.size
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    return t, df, _t_two_sided_p(t, df)
