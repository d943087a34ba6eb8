"""Per-state emission distributions for log-transformed activity counts.

The sleep state is a hurdle model: a point mass at exactly zero
(probability ``alpha``) and, with probability ``1 - alpha``, a Gaussian
truncated to the non-negative half line.  The wake state is a plain
Gaussian.  Both are evaluated in log space via erfc-based normal tail
functions, so extreme standardized values stay finite.

Weighted maximum-likelihood updates for both states are provided for use
as the M-step of EM fitting.  The wake update is closed form; the sleep
update sets ``alpha`` to the weighted zero fraction and maximizes the
truncated-Gaussian part over the parameter box.  That part depends on the
data only through the weight, weighted mean and weighted variance of the
positive values, and its box maximum is found exactly by one
golden-section search over the standardised truncation point mu / sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError, InputError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Clamps guarding against degenerate likelihood blow-ups.  The upper mu1
# bound rises to the largest weighted positive value when that is higher.
ALPHA_MIN = 1e-6
ALPHA_MAX = 1.0 - 1e-6
SIGMA_FLOOR = 1e-3
MU1_BOUNDS = (-5.0, 10.0)
SIGMA1_BOUNDS = (SIGMA_FLOOR, 5.0)

_GOLDEN_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SleepEmission:
    """Zero-inflated truncated Gaussian for the sleep state."""

    alpha: float
    mu1: float
    sigma1: float

    def __post_init__(self) -> None:
        # NaN compares false, so each check is written to fail on it
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must be in (0, 1), got {self.alpha}")
        if not np.isfinite(self.mu1):
            raise InputError(f"mu1 must be finite, got {self.mu1}")
        if not SIGMA_FLOOR <= self.sigma1 < np.inf:
            raise InputError(f"sigma1 must be in [{SIGMA_FLOOR}, inf), got {self.sigma1}")


@dataclass(frozen=True)
class WakeEmission:
    """Gaussian for the wake state."""

    mu2: float
    sigma2: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu2):
            raise InputError(f"mu2 must be finite, got {self.mu2}")
        if not SIGMA_FLOOR <= self.sigma2 < np.inf:
            raise InputError(f"sigma2 must be in [{SIGMA_FLOOR}, inf), got {self.sigma2}")


def _log_norm_pdf(z):
    return -0.5 * z * z - _LOG_SQRT_2PI


def log_ndtr(x: float) -> float:
    """log Phi(x), the standard normal log CDF, for a scalar ``x``.

    Above zero the upper tail is small and goes through ``log1p``; down to
    -20 ``erfc`` of the mirrored argument keeps full relative precision;
    below that the Mills-ratio asymptotic series (Abramowitz & Stegun
    26.2.12, 11 terms) is accurate to rounding.
    """
    if x > 0:
        return math.log1p(-0.5 * math.erfc(x / _SQRT2))
    if x > -20:
        return math.log(0.5 * math.erfc(-x / _SQRT2))
    x2 = x * x
    term = series = 1.0
    for k in range(1, 11):
        term *= -(2 * k - 1) / x2
        series += term
    return -0.5 * x2 - math.log(-x) - _LOG_SQRT_2PI + math.log(series)


def sleep_log_emission(obs, p: SleepEmission):
    """Log likelihood of the sleep emission at ``obs`` (scalar or array).

    A bit-exact zero scores the point mass ``log(alpha)``; a positive
    value scores ``log(1 - alpha)`` plus the truncated-Gaussian log density.
    """
    o = np.asarray(obs, dtype=np.float64)
    if not np.all(np.isfinite(o)):
        raise InputError("observations must be finite")
    if np.any(o < 0):
        raise InputError("log-count observations must be non-negative")
    z = (o - p.mu1) / p.sigma1
    log_pos = (
        np.log1p(-p.alpha)
        + _log_norm_pdf(z)
        - np.log(p.sigma1)
        - log_ndtr(p.mu1 / p.sigma1)  # log P(N(mu1, sigma1^2) > 0), the truncation mass
    )
    out = np.where(o == 0.0, np.log(p.alpha), log_pos)
    return float(out) if out.ndim == 0 else out


def wake_log_emission(obs, p: WakeEmission):
    """Log density of the wake Gaussian at ``obs`` (scalar or array)."""
    o = np.asarray(obs, dtype=np.float64)
    if not np.all(np.isfinite(o)):
        raise InputError("observations must be finite")
    z = (o - p.mu2) / p.sigma2
    out = _log_norm_pdf(z) - np.log(p.sigma2)
    return float(out) if out.ndim == 0 else out


def _check_weights(obs, weights) -> tuple[np.ndarray, np.ndarray]:
    o = np.asarray(obs, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if o.shape != w.shape or o.ndim != 1:
        raise InputError("obs and weights must be 1-d sequences of equal length")
    if np.any(w < 0) or np.any(w > 1):
        raise InputError("weights must lie in [0, 1]")
    if not np.sum(w) > 0:
        raise DegenerateWeightError("all weights are zero")
    return o, w


def fit_wake_weighted(obs, weights) -> WakeEmission:
    """Closed-form weighted Gaussian MLE, with the sigma floor applied."""
    _, mu, var = _trunc_stats(*_check_weights(obs, weights))
    return WakeEmission(mu2=mu, sigma2=float(max(np.sqrt(var), SIGMA_FLOOR)))


def _trunc_stats(o, wt) -> tuple[float, float, float]:
    """Weight, weighted mean and weighted variance of the observations.

    The weighted Gaussian and truncated-normal log-likelihoods depend on
    the data only through these three numbers.  They are numpy sums, not
    BLAS dot products, whose summation order follows the BLAS thread count.
    """
    w = float(np.sum(wt))
    mean = float(np.sum(wt * o) / w)
    return w, mean, float(np.sum(wt * (o - mean) ** 2) / w)


def _trunc_loglik(mu: float, sigma: float, stats) -> float:
    """Weighted truncated-normal log-likelihood from ``_trunc_stats``."""
    w, mean, var = stats
    return -w * (
        (var + (mean - mu) ** 2) / (2.0 * sigma * sigma)
        + _LOG_SQRT_2PI
        + math.log(sigma)
        + log_ndtr(mu / sigma)
    )


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """``(x, f(x))`` at the maximum of a unimodal ``f`` on ``[lo, hi]``.

    Golden-section search down to ``_GOLDEN_TOL``; the two ends are
    scored too, so a maximum on the boundary is found exactly.
    """
    a, b = lo, hi
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return max((c, fc), (d, fd), (lo, f(lo)), (hi, f(hi)), key=lambda p: p[1])


def _box_maximum(stats, mu_hi: float) -> tuple[float, float]:
    """Exact maximum of ``_trunc_loglik`` over the parameter box.

    The box is ``MU1_BOUNDS[0] <= mu <= mu_hi`` by ``SIGMA1_BOUNDS``.

    Write ``mu = s * sigma``: ``s`` is the standardised truncation point
    of Cohen (Ann. Math. Stat. 21, 1950).  At fixed ``s`` the objective
    is, in ``u = 1 / sigma`` and up to a function of ``s`` alone,
    ``-w * (M2 * u^2 / 2 - mean * s * u - log u)`` with
    ``M2 = var + mean^2``: concave in ``u`` and maximal at the positive
    root of ``M2 * u^2 - mean * s * u - 1``.  The box bounds ``u`` by
    the sigma bounds and, through ``mu = s / u``, by the mu bound on the
    side of ``s``; the best ``u`` is that root clipped to those bounds.
    An active bound is returned as the bound value itself.

    That leaves a search over ``s`` alone.  The log-likelihood is concave
    in the natural parameters ``(mu / sigma^2, -1 / (2 sigma^2))``, in
    which the box is a convex polygon, so its superlevel sets inside the
    box are convex.  The s-values of a convex set form an interval, so
    the profile over ``s`` is unimodal and one golden-section search
    finds its maximum.  The profile has a kink where a mu bound meets the
    upper sigma bound, at ``s = mu bound / SIGMA1_BOUNDS[1]``.  The lower
    kink is scored too, so a maximum at that corner comes back exactly.  The
    upper corner ``(mu_hi, SIGMA1_BOUNDS[1])`` cannot win: ``mu_hi`` is at
    least the weighted mean, above which the objective falls in ``mu``.
    """
    _, mean, var = stats
    m2 = var + mean * mean
    mu_lo = MU1_BOUNDS[0]
    sigma_lo, sigma_hi = SIGMA1_BOUNDS

    def best_at(s: float) -> tuple[float, float]:
        ms = mean * s
        d = math.sqrt(ms * ms + 4.0 * m2)
        # 1 / (the positive root), in the form that does not cancel
        sigma = (d - ms) / 2.0 if ms < 0 else 2.0 * m2 / (d + ms)
        if s != 0:
            # mu = s * sigma reaches the bound on the side of s at sigma = edge / s
            edge = mu_hi if s > 0 else mu_lo
            if edge / s <= min(sigma, sigma_hi):
                return edge, edge / s
        sigma = min(max(sigma, sigma_lo), sigma_hi)
        return s * sigma, sigma

    def profile(s: float) -> float:
        return _trunc_loglik(*best_at(s), stats)

    kink = mu_lo / sigma_hi
    search = _golden_max(profile, mu_lo / sigma_lo, mu_hi / sigma_lo)
    s, _ = max((kink, profile(kink)), search, key=lambda p: p[1])
    return best_at(s)


def _fit_truncnorm_weighted(o, wt, mu0: float, sigma0: float) -> tuple[float, float]:
    """Maximize the weighted truncated-normal log-likelihood over the box.

    The box maximum comes from ``_box_maximum``, whatever the start, with
    the upper mu bound at ``max(MU1_BOUNDS[1], largest o of positive
    weight)``; a result that scores below (mu0, sigma0) itself, possible
    only for a start outside the box, is discarded for it.
    """
    if not np.sum(wt) > 0:
        return mu0, sigma0
    stats = _trunc_stats(o, wt)
    mu, sigma = _box_maximum(stats, float(np.max(o, where=wt > 0, initial=MU1_BOUNDS[1])))
    if _trunc_loglik(mu, sigma, stats) < _trunc_loglik(mu0, sigma0, stats):
        return mu0, sigma0
    return mu, sigma


def fit_sleep_weighted(obs, weights, init: SleepEmission) -> SleepEmission:
    """Weighted MLE of the zero-inflated truncated Gaussian.

    The likelihood splits into a point-mass part and a truncated-Gaussian
    part.  alpha maximizes the first exactly as the weighted zero fraction;
    (mu1, sigma1) maximize the second over the positive observations
    inside the parameter box, never scoring below ``init``.
    """
    o, w = _check_weights(obs, weights)
    zero = o == 0.0
    alpha = float(np.clip(np.sum(w[zero]) / np.sum(w), ALPHA_MIN, ALPHA_MAX))
    mu, sigma = _fit_truncnorm_weighted(o, np.where(zero, 0.0, w), init.mu1, init.sigma1)
    return SleepEmission(alpha=alpha, mu1=mu, sigma1=sigma)
