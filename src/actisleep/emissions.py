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
positive values; Newton's method on those three numbers is the fast path,
and an exact nested golden-section search over the box takes over
whenever a Newton step leaves the box or cannot ascend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError, InputError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Clamps guarding against degenerate likelihood blow-ups.
ALPHA_MIN = 1e-6
ALPHA_MAX = 1.0 - 1e-6
SIGMA_FLOOR = 1e-3
MU1_BOUNDS = (-5.0, 10.0)
SIGMA1_BOUNDS = (SIGMA_FLOOR, 5.0)

_FIT_TOL = 1e-8
_FIT_MAX_ITER = 100
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
    o, w = _check_weights(obs, weights)
    wsum = np.sum(w)
    mu = float(np.dot(w, o) / wsum)
    var = float(np.dot(w, (o - mu) ** 2) / wsum)
    sigma = max(np.sqrt(var), SIGMA_FLOOR)
    return WakeEmission(mu2=mu, sigma2=float(sigma))


def _trunc_stats(o, wt) -> tuple[float, float, float]:
    """Weight, weighted mean and weighted variance of the observations.

    The weighted truncated-normal log-likelihood depends on the data only
    through these three numbers.
    """
    w = float(np.sum(wt))
    mean = float(np.dot(wt, o) / w)
    return w, mean, float(np.dot(wt, (o - mean) ** 2) / w)


def _trunc_loglik(mu: float, sigma: float, stats) -> float:
    """Weighted truncated-normal log-likelihood from ``_trunc_stats``."""
    w, mean, var = stats
    return -w * (
        (var + (mean - mu) ** 2) / (2.0 * sigma * sigma)
        + _LOG_SQRT_2PI
        + math.log(sigma)
        + log_ndtr(mu / sigma)
    )


def _trunc_grad_hess(mu: float, sigma: float, stats):
    """Gradient ``(d_mu, d_sigma)`` and Hessian ``(mu_mu, mu_sigma, sigma_sigma)``
    of ``_trunc_loglik``."""
    w, mean, var = stats
    s = mu / sigma
    m1 = w * (mean - mu) / sigma  # sum of weighted z
    m2 = w * (var + (mean - mu) ** 2) / sigma**2  # sum of weighted z^2
    # hazard phi(s)/Phi(s) and its derivative, stable via the log domain
    h = math.exp(_log_norm_pdf(s) - log_ndtr(s))
    hp = -s * h - h * h
    g_mu = m1 / sigma - w * h / sigma
    g_sigma = -w / sigma + m2 / sigma + w * h * mu / sigma**2
    h_mumu = -(w / sigma**2) * (1.0 + hp)
    h_musigma = -2.0 * m1 / sigma**2 + w * mu * hp / sigma**3 + w * h / sigma**2
    h_sigsig = (
        w / sigma**2
        - 3.0 * m2 / sigma**2
        - w * mu**2 * hp / sigma**4
        - 2.0 * w * mu * h / sigma**3
    )
    return (g_mu, g_sigma), (h_mumu, h_musigma, h_sigsig)


def _in_box(mu: float, sigma: float) -> bool:
    return MU1_BOUNDS[0] <= mu <= MU1_BOUNDS[1] and SIGMA1_BOUNDS[0] <= sigma <= SIGMA1_BOUNDS[1]


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


def _box_search(stats) -> tuple[float, float]:
    """Exact maximum of ``_trunc_loglik`` over the parameter box.

    The log-likelihood is concave in the natural parameters
    ``(mu / sigma^2, -1 / (2 sigma^2))``, and the box is a convex polygon
    in those coordinates.  At fixed ``sigma`` the first is linear in
    ``mu``, so the objective is concave, hence unimodal, in ``mu``; and
    its maximum over ``mu`` is a concave function of the second, which is
    monotone in ``sigma``, so that profile is unimodal in ``sigma``.  A
    golden-section search over ``mu`` nested inside one over ``sigma``
    therefore finds the box maximum.
    """

    def best_mu(sigma: float) -> tuple[float, float]:
        return _golden_max(lambda mu: _trunc_loglik(mu, sigma, stats), *MU1_BOUNDS)

    sigma, _ = _golden_max(lambda sg: best_mu(sg)[1], *SIGMA1_BOUNDS)
    return best_mu(sigma)[0], sigma


def _newton(stats, mu: float, sigma: float) -> tuple[float, float]:
    """Newton ascent of ``_trunc_loglik`` from a start inside the box.

    A stationary point inside the box is the box maximum (see
    ``_box_search``).  A step that leaves the box, a Hessian that is not
    negative definite, or a step that cannot ascend hands over to the
    exact ``_box_search``.
    """
    ll = _trunc_loglik(mu, sigma, stats)
    for _ in range(_FIT_MAX_ITER):
        (g_mu, g_sigma), (h_mumu, h_musigma, h_sigsig) = _trunc_grad_hess(mu, sigma, stats)
        det = h_mumu * h_sigsig - h_musigma * h_musigma
        if not (h_mumu < 0.0 and det > 0.0):
            return _box_search(stats)
        # the Newton step solves hess @ step = -grad
        step_mu = (h_musigma * g_sigma - h_sigsig * g_mu) / det
        step_sigma = (h_musigma * g_mu - h_mumu * g_sigma) / det
        ascends = step_mu * g_mu + step_sigma * g_sigma > 0
        if not (ascends and _in_box(mu + step_mu, sigma + step_sigma)):
            return _box_search(stats)
        scale = 1.0
        for _ in range(40):
            mu_try, sigma_try = mu + scale * step_mu, sigma + scale * step_sigma
            ll_try = _trunc_loglik(mu_try, sigma_try, stats)
            if ll_try >= ll:
                mu, sigma, ll = mu_try, sigma_try, ll_try
                break
            scale *= 0.5
        else:
            return _box_search(stats)
        if max(abs(scale * step_mu), abs(scale * step_sigma)) < _FIT_TOL:
            return mu, sigma
    return _box_search(stats)


def _fit_truncnorm_weighted(o, wt, mu0: float, sigma0: float) -> tuple[float, float]:
    """Maximize the weighted truncated-normal log-likelihood over the box.

    Newton runs from the clipped warm start; a result that scores below
    (mu0, sigma0) itself, possible only for a start outside the box, is
    discarded for it.
    """
    if not np.sum(wt) > 0:
        return mu0, sigma0
    stats = _trunc_stats(o, wt)
    mu, sigma = _newton(
        stats, float(np.clip(mu0, *MU1_BOUNDS)), float(np.clip(sigma0, *SIGMA1_BOUNDS))
    )
    if _trunc_loglik(mu, sigma, stats) < _trunc_loglik(mu0, sigma0, stats):
        return mu0, sigma0
    return mu, sigma


def fit_sleep_weighted(obs, weights, init: SleepEmission) -> SleepEmission:
    """Weighted MLE of the zero-inflated truncated Gaussian.

    The likelihood splits into a point-mass part and a truncated-Gaussian
    part.  alpha maximizes the first exactly as the weighted zero fraction;
    (mu1, sigma1) maximize the second over the positive observations,
    warm-started at ``init`` and never scoring below it.
    """
    o, w = _check_weights(obs, weights)
    zero = o == 0.0
    alpha = float(np.clip(np.sum(w[zero]) / np.sum(w), ALPHA_MIN, ALPHA_MAX))
    mu, sigma = _fit_truncnorm_weighted(o, np.where(zero, 0.0, w), init.mu1, init.sigma1)
    return SleepEmission(alpha=alpha, mu1=mu, sigma1=sigma)
