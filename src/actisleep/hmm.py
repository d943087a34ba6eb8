"""Two-state sleep/wake HMM: forward-backward, EM fitting, Viterbi.

State index 0 is sleep (zero-inflated truncated Gaussian emission),
index 1 is wake (Gaussian emission); the labeling convention mu1 < mu2
is enforced after fitting.  The forward-backward pass uses Rabiner's
per-step normalization, or log space where the scaled pass fails one of
its underflow checks, and returns the expected transition counts summed
over time rather than per-step pairwise posteriors; Viterbi runs in pure
log space with ties broken toward sleep.  With two states, both
recursions run as loops over plain Python floats read from and written
to numpy arrays through ``memoryview``s; the Viterbi traceback is
integer array work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emissions import (
    SleepEmission,
    WakeEmission,
    fit_sleep_weighted,
    fit_wake_weighted,
    sleep_log_emission,
    wake_log_emission,
)
from .errors import DegenerateWeightError, InputError
from .series import LogSeries, StateSequence, read_key_values, write_key_values

_STOCHASTIC_TOL = 1e-12
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 500
_MIN_FIT_LENGTH = 10
_MIN_OCCUPANCY = 1e-100


@dataclass(frozen=True)
class HmmParams:
    """Full parameter set: transition matrix, emissions, initial probabilities."""

    a: np.ndarray
    sleep: SleepEmission
    wake: WakeEmission
    pi: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        pi = np.asarray(self.pi, dtype=np.float64)
        # NaN compares false, so each check is written to fail on it
        if a.shape != (2, 2):
            raise InputError("transition matrix must be 2x2")
        if not np.all((a >= 0) & (a <= 1)):
            raise InputError("transition entries must lie in [0, 1]")
        if not np.all(np.abs(a.sum(axis=1) - 1.0) <= _STOCHASTIC_TOL):
            raise InputError("transition rows must each sum to 1")
        if pi.shape != (2,) or not (
            np.all(pi >= 0) and abs(pi.sum() - 1.0) <= _STOCHASTIC_TOL
        ):
            raise InputError("pi must be a length-2 probability vector")
        a.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True)
class FitReport:
    """Outcome of one Baum-Welch run.

    ``log_likelihood`` belongs to ``params``; ``log_likelihood_trace`` is
    the EM trace, which a swapped fit's relabelling leaves behind.
    """

    params: HmmParams
    log_likelihood: float
    log_likelihood_trace: list[float]
    iterations: int
    converged: bool
    swapped: bool


def log_terms(obs: LogSeries, params: HmmParams):
    """(log b, log a, log pi): the terms a log-space path score sums.

    log b is the (2, T) matrix of log emission densities, row 0 sleep and
    row 1 wake; each row is a contiguous float64 array, so the recursions
    can read it through a ``memoryview`` one Python float at a time.  The
    E-step, ``viterbi`` and the enumeration oracles in ``verify`` all take
    their terms from here, so a decoded path and its enumerated score add
    the same numbers.  Zero probabilities map to -inf.
    """
    logb = np.stack(
        [
            sleep_log_emission(obs.values, params.sleep),
            wake_log_emission(obs.values, params.wake),
        ]
    )
    with np.errstate(divide="ignore"):
        return logb, np.log(params.a), np.log(params.pi)


def _forward_backward(obs: LogSeries, params: HmmParams):
    """Scaled forward-backward pass (Rabiner's per-step normalization).

    Returns (log_likelihood, gamma, xi_sum): gamma is the (T, 2) array of
    state posteriors and xi_sum the (2, 2) expected transition counts,
    i.e. the pairwise posteriors P(s_t = i, s_t+1 = j) summed over t.
    The two sequential recursions run over Python floats; xi_sum is one
    vectorized step and no per-epoch (T-1, 2, 2) array is built.  The pass
    hands over to ``_log_forward_backward`` when a scale is not a normal
    float (a zero scale is stored as NaN), a backward variable is not
    finite, or an underflowed forward mass or emission factor carries a
    posterior share (predicted mass times emission times beta) above about
    1e-20: a lineage lost to underflow can hold most of the posterior while
    its beta stays finite.
    """
    logb, log_a, log_pi = log_terms(obs, params)
    T = logb.shape[1]
    shift = logb.max(axis=0)
    b = np.exp(logb - shift)
    a = params.a
    a00, a01, a10, a11 = a.ravel().tolist()
    b0, b1 = memoryview(b[0]), memoryview(b[1])

    alpha = np.empty((2, T))
    c = np.empty(T)
    al0, al1, cv = memoryview(alpha[0]), memoryview(alpha[1]), memoryview(c)
    q0, q1 = params.pi.tolist()  # each state's predicted forward mass
    for t in range(T):
        p0, p1 = q0 * b0[t], q1 * b1[t]
        ct = p0 + p1 or np.nan
        x0, x1 = p0 / ct, p1 / ct
        al0[t], al1[t], cv[t] = x0, x1, ct
        q0, q1 = x0 * a00 + x1 * a10, x0 * a01 + x1 * a11

    beta = np.empty((2, T))
    be0, be1 = memoryview(beta[0]), memoryview(beta[1])
    z0 = z1 = 1.0
    be0[T - 1] = be1[T - 1] = 1.0
    for t in range(T - 1, 0, -1):
        y0, y1, ct = b0[t] * z0, b1[t] * z1, cv[t]
        z0, z1 = (a00 * y0 + a01 * y1) / ct, (a10 * y0 + a11 * y1) / ct
        be0[t - 1], be1[t - 1] = z0, z1
    tiny = np.finfo(np.float64).tiny
    if not c.min() >= tiny or not np.isfinite(beta).all():
        return _log_forward_backward(logb, log_a, log_pi)
    j, t = np.nonzero((alpha < tiny) | (b < tiny))  # underflowed forward masses or emissions
    if t.size:  # the log of each one's unscaled alpha * beta, its posterior share
        with np.errstate(divide="ignore"):
            q = np.where(t > 0, np.logaddexp(*(np.log(alpha[:, t - 1]) + log_a[:, j])), log_pi[j])
            share = q + (logb[j, t] - shift[t]) - np.log(c[t]) + np.log(beta[j, t])
        if share.max() > np.log(np.finfo(np.float64).eps) - 10:
            return _log_forward_backward(logb, log_a, log_pi)
    log_likelihood = float(np.sum(np.log(c)) + np.sum(shift))

    gamma = (alpha * beta).T
    gamma /= gamma.sum(axis=1, keepdims=True)

    # xi_t[i, j] = alpha_t[i] a[i, j] y_t+1[j] / norm_t with y = b * beta
    y = (b[:, 1:] * beta[:, 1:]).T
    head = alpha[:, :-1]
    y /= ((head.T @ a) * y).sum(axis=1, keepdims=True)
    xi_sum = a * (head @ y)
    return log_likelihood, gamma, xi_sum


def _log_forward_backward(logb, log_a, log_pi):
    """``_forward_backward`` in log space, for parameters (such as an exact 0
    or a tiny entry in ``pi`` or ``a``) under which the scaled pass fails
    one of its checks."""
    log_alpha, log_beta = np.empty_like(logb), np.zeros_like(logb)
    log_alpha[:, 0] = log_pi + logb[:, 0]
    for t in range(1, logb.shape[1]):  # log of the sum over i of alpha[i] a[i, j]
        log_alpha[:, t] = np.logaddexp(*(log_alpha[:, t - 1, None] + log_a)) + logb[:, t]
    log_likelihood = float(np.logaddexp(*log_alpha[:, -1]))
    for t in range(logb.shape[1] - 1, 0, -1):
        log_beta[:, t - 1] = np.logaddexp(*(log_a + (logb[:, t] + log_beta[:, t])).T)
    gamma = np.exp(log_alpha + log_beta - log_likelihood).T
    gamma /= gamma.sum(axis=1, keepdims=True)  # the M-step refuses a weight above 1
    # xi_t[i, j] = alpha_t[i] a[i, j] y_t+1[j] / L with y = b * beta, summed over t
    log_xi = log_alpha[:, None, :-1] + log_a[:, :, None] + (logb + log_beta)[None, :, 1:]
    return log_likelihood, gamma, np.exp(log_xi - log_likelihood).sum(axis=2)


def forward_log_likelihood(obs: LogSeries, params: HmmParams) -> float:
    """log P(observations | params) by the forward recursion."""
    log_likelihood, _, _ = _forward_backward(obs, params)
    return log_likelihood


def posterior_marginals(obs: LogSeries, params: HmmParams) -> np.ndarray:
    """(T, 2) per-epoch state posteriors given the full observation sequence."""
    _, gamma, _ = _forward_backward(obs, params)
    return gamma


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` bit for bit, without numpy's quantile
    code, whose ``np.unique`` imports ``numpy.ma`` at its first call."""
    g = (values.size - 1) * (q / 100)
    i, j = int(g), min(int(g) + 1, values.size - 1)
    a, b = np.partition(values, (i, j))[[i, j]].tolist()
    g -= i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def default_init(obs: LogSeries) -> HmmParams:
    """Deterministic moment-based initialization for Baum-Welch.

    Low/high nonzero quantile means seed the two emission locations; the
    zero fraction seeds alpha.
    """
    values = obs.values
    nonzero = values[values > 0]
    if nonzero.size == 0:
        mu1, mu2 = 1.0, 3.0
    else:
        q40 = _percentile(nonzero, 40)
        q60 = _percentile(nonzero, 60)
        low = nonzero[nonzero < q40]
        mu1 = float(low.mean()) if low.size else 1.0
        high = nonzero[nonzero > q60]
        mu2 = float(high.mean()) if high.size else mu1 + 2.0
    alpha = float(np.clip(np.mean(values == 0.0), 0.05, 0.95))
    return HmmParams(
        a=np.array([[0.95, 0.05], [0.05, 0.95]]),
        sleep=SleepEmission(alpha=alpha, mu1=mu1, sigma1=1.0),
        wake=WakeEmission(mu2=mu2, sigma2=1.0),
        pi=np.array([0.5, 0.5]),
    )


def _swap_states(params: HmmParams) -> HmmParams:
    """Relabel the two states; the zero-inflation mass stays with sleep."""
    a = params.a[::-1, ::-1].copy()
    return HmmParams(
        a=a,
        sleep=SleepEmission(
            alpha=params.sleep.alpha, mu1=params.wake.mu2, sigma1=params.wake.sigma2
        ),
        wake=WakeEmission(mu2=params.sleep.mu1, sigma2=params.sleep.sigma1),
        pi=params.pi[::-1].copy(),
    )


def baum_welch(
    obs: LogSeries,
    init: HmmParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitReport:
    """EM fit of the full parameter set to one observation sequence.

    Stops when the relative log-likelihood change drops below ``tol`` or
    after ``max_iter`` iterations.  The trace records the log-likelihood
    of the parameters entering each E-step and is non-decreasing.
    """
    if len(obs) < _MIN_FIT_LENGTH:
        raise InputError(f"need at least {_MIN_FIT_LENGTH} epochs to fit")
    if not 0 < tol < np.inf:  # also false for NaN
        raise InputError("tol must be positive and finite")
    if max_iter < 0:
        raise InputError("max_iter must be non-negative")

    params = init
    trace: list[float] = []
    # pass k scores the parameters after k M-steps, so k counts them
    for iterations in range(max_iter + 1):
        log_likelihood, gamma, xi_sum = _forward_backward(obs, params)
        converged = bool(
            trace and abs(log_likelihood - trace[-1]) <= tol * max(1.0, abs(trace[-1]))
        )
        trace.append(log_likelihood)
        if converged or iterations == max_iter:
            break
        # M-step
        occupancy = gamma[:-1].sum(axis=0)
        a = xi_sum / np.maximum(occupancy, _MIN_OCCUPANCY)[:, None]
        # a state (almost) never occupied before the last epoch has no
        # expected transitions out of it: keep its previous row
        kept = occupancy < _MIN_OCCUPANCY
        a[kept] = params.a[kept]
        a /= a.sum(axis=1, keepdims=True)
        try:
            sleep = fit_sleep_weighted(obs.values, gamma[:, 0], params.sleep)
            wake = fit_wake_weighted(obs.values, gamma[:, 1])
        except DegenerateWeightError as exc:
            raise DegenerateWeightError(
                f"EM iteration {iterations + 1}: {exc}"
            ) from exc
        params = HmmParams(a=a, sleep=sleep, wake=wake, pi=gamma[0].copy())

    swapped = params.sleep.mu1 >= params.wake.mu2
    if swapped:
        # the zero-inflation mass stays with sleep, so the swapped model
        # is a different one and needs its own score
        params = _swap_states(params)
        log_likelihood = forward_log_likelihood(obs, params)
    return FitReport(
        params=params,
        log_likelihood=log_likelihood,
        log_likelihood_trace=trace,
        iterations=iterations,
        converged=converged,
        swapped=swapped,
    )


def viterbi(obs: LogSeries, params: HmmParams) -> StateSequence:
    """Most probable state path in log space; ties resolve toward sleep.

    delta_t[j] = (delta_t-1[i] + log a[i, j]) + log b_t[j] is summed in
    the same order as ``verify.score_paths``, so the returned path scores
    bitwise-equal to the enumeration maximum there.
    """
    logb, log_a, log_pi = log_terms(obs, params)
    T = logb.shape[1]
    la00, la01, la10, la11 = log_a.ravel().tolist()
    lb0, lb1 = memoryview(logb[0]), memoryview(logb[1])
    backptr = np.zeros((2, T), dtype=np.int8)  # backptr[j, t]: best state at t-1
    bp0, bp1 = memoryview(backptr[0]), memoryview(backptr[1])
    lp0, lp1 = log_pi.tolist()
    d0, d1 = lp0 + lb0[0], lp1 + lb1[0]
    for t in range(1, T):
        s0, s1 = d0 + la00, d1 + la10
        if s1 > s0:  # a tie keeps the sleep predecessor
            bp0[t] = 1
            s0 = s1
        e0, e1 = d0 + la01, d1 + la11
        if e1 > e0:
            bp1[t] = 1
            e0 = e1
        d0, d1 = s0 + lb0[t], e0 + lb1[t]
    final = 1 if d1 > d0 else 0
    del logb, lb0, lb1  # free log b: the traceback needs only the backpointers
    return StateSequence(_traceback(backptr, final), obs.epoch_seconds)


def _traceback(backptr: np.ndarray, final: int) -> np.ndarray:
    """The path that follows the (2, T) ``int8`` backpointers back from ``final``.

    Step t maps state[t] to state[t-1] = backptr[state[t], t] (column 0 is
    unread): ``viterbi``'s argmax pointers, or the simulator's per-step
    chain maps in reverse time.  Where the two pointers agree the map is
    constant and fixes state[t-1] outright; elsewhere state[t-1] =
    state[t] ^ backptr[0, t].  So each state is the nearest fixed state at
    or after it, XORed with the swaps in between.  Worked in reverse epoch
    order r: ``swaps`` is the running parity of the swaps, and ``key``, 2 r
    plus a fixed state's bit (0 where no state is fixed), carries each
    fixed state on through ``np.maximum.accumulate``.
    """
    T = backptr.shape[1]
    bp0, bp1 = backptr[0, :0:-1], backptr[1, :0:-1]  # t = T-1, ..., 1
    swaps = np.zeros(T, dtype=np.int8)
    np.greater(bp0, bp1, out=swaps[1:])
    np.bitwise_xor.accumulate(swaps, out=swaps)
    fixed = np.ones(T, dtype=bool)
    np.equal(bp0, bp1, out=fixed[1:])
    key = np.arange(0, 2 * T, 2, dtype=np.int64)
    key[0] += final
    key[1:] += bp0
    key ^= swaps  # bit 0 holds the fixed state XOR the parity up to it
    key *= fixed
    np.maximum.accumulate(key, out=key)
    key &= 1
    key ^= swaps
    return key[::-1].astype(np.int8)


# The parameter file's keys, in the order write_params writes them.
_PARAM_KEYS = (
    "a11", "a12", "a21", "a22", "pi_sleep", "pi_wake", "alpha", "mu1", "sigma1", "mu2", "sigma2"
)


def write_params(params: HmmParams, path) -> None:
    """Serialize parameters as key=value lines with 17 significant digits."""
    s, w = params.sleep, params.wake
    values = (*params.a.ravel(), *params.pi, s.alpha, s.mu1, s.sigma1, w.mu2, w.sigma2)
    write_key_values(path, zip(_PARAM_KEYS, values))


def read_params(path) -> HmmParams:
    v = read_key_values(path, _PARAM_KEYS, float)
    return HmmParams(
        a=np.array([[v["a11"], v["a12"]], [v["a21"], v["a22"]]]),
        sleep=SleepEmission(alpha=v["alpha"], mu1=v["mu1"], sigma1=v["sigma1"]),
        wake=WakeEmission(mu2=v["mu2"], sigma2=v["sigma2"]),
        pi=np.array([v["pi_sleep"], v["pi_wake"]]),
    )
