"""Per-state emission distributions for log-transformed activity counts.

The sleep state is a hurdle model: a point mass at exactly zero
(probability ``alpha``) and, with probability ``1 - alpha``, a Gaussian
truncated to the non-negative half line.  The wake state is a plain
Gaussian.  Both are evaluated in log space via erfc-based normal tail
functions, so extreme standardized values stay finite.

Weighted maximum-likelihood updates for both states are provided for use
as the M-step of EM fitting.  The wake update is closed form; the sleep
update sets ``alpha`` to the weighted zero fraction and runs a bounded
Newton iteration for the truncated-Gaussian part.
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


def _trunc_loglik(mu: float, sigma: float, o, wt) -> float:
    """Weighted truncated-normal log-likelihood."""
    z = (o - mu) / sigma
    wsum = np.sum(wt)
    return float(
        np.dot(wt, _log_norm_pdf(z)) - wsum * (np.log(sigma) + log_ndtr(mu / sigma))
    )


def _trunc_grad_hess(mu: float, sigma: float, o, wt):
    """Gradient and Hessian of the weighted truncated-normal log-likelihood."""
    z = (o - mu) / sigma
    s = mu / sigma
    W = float(np.sum(wt))
    m1 = float(np.dot(wt, z))
    m2 = float(np.dot(wt, z * z))
    # hazard phi(s)/Phi(s) and its derivative, stable via the log domain
    h = float(np.exp(_log_norm_pdf(s) - log_ndtr(s)))
    hp = -s * h - h * h
    g_mu = m1 / sigma - W * h / sigma
    g_sigma = -W / sigma + m2 / sigma + W * h * mu / sigma**2
    h_mumu = -(W / sigma**2) * (1.0 + hp)
    h_musigma = -2.0 * m1 / sigma**2 + W * mu * hp / sigma**3 + W * h / sigma**2
    h_sigsig = (
        W / sigma**2
        - 3.0 * m2 / sigma**2
        - W * mu**2 * hp / sigma**4
        - 2.0 * W * mu * h / sigma**3
    )
    grad = np.array([g_mu, g_sigma])
    hess = np.array([[h_mumu, h_musigma], [h_musigma, h_sigsig]])
    return grad, hess


def _in_box(mu: float, sigma: float) -> bool:
    return MU1_BOUNDS[0] <= mu <= MU1_BOUNDS[1] and SIGMA1_BOUNDS[0] <= sigma <= SIGMA1_BOUNDS[1]


def _coordinate_search(o, wt, mu: float, sigma: float) -> tuple[float, float]:
    """Bounded per-coordinate maximization, the fallback when Newton leaves the box."""
    from scipy.optimize import minimize_scalar

    for _ in range(20):
        mu_prev, sigma_prev = mu, sigma
        res = minimize_scalar(
            lambda m: -_trunc_loglik(m, sigma, o, wt),
            bounds=MU1_BOUNDS,
            method="bounded",
        )
        if -res.fun >= _trunc_loglik(mu, sigma, o, wt):
            mu = float(res.x)
        res = minimize_scalar(
            lambda sg: -_trunc_loglik(mu, sg, o, wt),
            bounds=SIGMA1_BOUNDS,
            method="bounded",
        )
        if -res.fun >= _trunc_loglik(mu, sigma, o, wt):
            sigma = float(res.x)
        if max(abs(mu - mu_prev), abs(sigma - sigma_prev)) < _FIT_TOL:
            break
    return mu, sigma


def _newton(o, wt, mu: float, sigma: float) -> tuple[float, float]:
    """Newton ascent of the weighted truncated-normal log-likelihood.

    Step-halving keeps the search at the stationary point nearest the
    start; if a Newton step cannot stay inside the parameter box a bounded
    coordinate search takes over.
    """
    ll = _trunc_loglik(mu, sigma, o, wt)
    for _ in range(_FIT_MAX_ITER):
        grad, hess = _trunc_grad_hess(mu, sigma, o, wt)
        try:
            # require a negative-definite Hessian: an indefinite one can
            # yield a locally-ascending saddle direction that marches to
            # the mu boundary instead of the interior maximum
            np.linalg.cholesky(-hess)
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)) or np.dot(step, grad) <= 0:
            return _coordinate_search(o, wt, mu, sigma)
        scale = 1.0
        accepted = False
        for _ in range(40):
            mu_try = mu + scale * step[0]
            sigma_try = sigma + scale * step[1]
            if _in_box(mu_try, sigma_try):
                ll_try = _trunc_loglik(mu_try, sigma_try, o, wt)
                if ll_try >= ll:
                    mu, sigma, ll = mu_try, sigma_try, ll_try
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            return _coordinate_search(o, wt, mu, sigma)
        if max(abs(scale * step[0]), abs(scale * step[1])) < _FIT_TOL:
            break
    return mu, sigma


def _fit_truncnorm_weighted(o, wt, mu0: float, sigma0: float) -> tuple[float, float]:
    """Maximize the weighted truncated-normal log-likelihood from a warm start.

    The search runs inside the parameter box from the clipped start; a
    result that scores below (mu0, sigma0) itself is discarded for it.
    """
    if not np.sum(wt) > 0:
        return mu0, sigma0
    wmean = float(np.dot(wt, o) / np.sum(wt))
    if np.dot(wt, (o - wmean) ** 2) > 0:
        mu, sigma = _newton(
            o, wt, float(np.clip(mu0, *MU1_BOUNDS)), float(np.clip(sigma0, *SIGMA1_BOUNDS))
        )
    else:
        # a single repeated value: the likelihood grows without bound as
        # sigma shrinks, so pin it at the floor instead of collapsing
        mu, sigma = float(np.clip(wmean, *MU1_BOUNDS)), SIGMA_FLOOR
    if _trunc_loglik(mu, sigma, o, wt) < _trunc_loglik(mu0, sigma0, o, wt):
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
