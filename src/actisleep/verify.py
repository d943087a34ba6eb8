"""Brute-force path-enumeration oracles and randomized self-checks.

The oracles score every one of the 2^T state paths of a short sequence
with one path scorer and derive the likelihood, the posteriors and the
most probable path from those scores.  The self-checks generate random
short instances (valid parameters plus observations), enumerate each
instance once, and read from that one table of path scores the checks of
the scaled forward likelihood, the posterior marginals and the Viterbi
decode, which passes when it reaches the enumerated maximum score (any
tied path does); they also check EM ascent on a few simulated series.
Each check looks up its ``hmm`` function at call time, so a test shows
that a faulty implementation is caught by patching that function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hmm
from .emissions import SleepEmission, WakeEmission
from .errors import InputError
from .series import LogSeries, StateSequence, log_transform
from .simulate import reference_params, seeded_rng, simulate

FORWARD_REL_TOL = 1e-10
POSTERIOR_TOL = 1e-10
EM_ASCENT_TOL = 1e-9
BRUTE_FORCE_MAX_T = 16
EM_RUNS = 5


def score_paths(obs: LogSeries, params: hmm.HmmParams, paths: np.ndarray) -> np.ndarray:
    """(N,) log P(path, observations | params) for each row of an (N, T) int8 matrix.

    Summed left to right as (logp + log a[prev, cur]) + log b[cur, t], the
    operation order of ``hmm.viterbi``, so a decoded path scores bitwise
    equal to its enumerated score, and coincidentally tied paths (e.g. two
    zero epochs swapping states) tie here exactly when they tie in Viterbi.
    """
    logb, log_a, log_pi = hmm.log_terms(obs, params)
    logp = log_pi[paths[:, 0]] + logb[paths[:, 0], 0]
    for t in range(1, paths.shape[1]):
        logp = (logp + log_a[paths[:, t - 1], paths[:, t]]) + logb[paths[:, t], t]
    return logp


def _path_log_probs(obs: LogSeries, params: hmm.HmmParams) -> tuple[np.ndarray, np.ndarray]:
    """Scores of all 2^T paths and the (2^T, T) paths in lexicographic order."""
    T = len(obs)
    if T > BRUTE_FORCE_MAX_T:
        raise InputError(
            f"brute-force oracle refuses T={T} > {BRUTE_FORCE_MAX_T}"
        )
    n = np.arange(2**T, dtype=np.int64)
    paths = ((n[:, None] >> np.arange(T - 1, -1, -1)) & 1).astype(np.int8)
    return score_paths(obs, params, paths), paths


def _logsumexp(logp: np.ndarray) -> float:
    """log(sum(exp(logp))), shifted by the maximum so no term overflows."""
    m = logp.max()
    return float(m + np.log(np.sum(np.exp(logp - m))))


def brute_force_likelihood(obs: LogSeries, params: hmm.HmmParams) -> float:
    """log P(observations | params) by summing over all 2^T paths."""
    logp, _ = _path_log_probs(obs, params)
    return _logsumexp(logp)


def brute_force_posteriors(obs: LogSeries, params: hmm.HmmParams) -> np.ndarray:
    """(T, 2) state posteriors by exhaustive enumeration."""
    return _posteriors(*_path_log_probs(obs, params))


def _posteriors(logp: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """(T, 2) state posteriors from the scores of all paths."""
    weights = np.exp(logp - _logsumexp(logp))
    gamma = np.empty((paths.shape[1], 2))
    gamma[:, 1] = weights @ paths
    gamma[:, 0] = 1.0 - gamma[:, 1]
    return gamma


def brute_force_viterbi(obs: LogSeries, params: hmm.HmmParams) -> StateSequence:
    """Enumeration argmax path under the same sleep-leaning tie rule.

    Viterbi backpointer ties favor sleep from the final epoch backwards,
    which selects the maximizing path whose reversed state tuple is
    lexicographically smallest; the enumeration reproduces that rule.
    """
    logp, paths = _path_log_probs(obs, params)
    tied = np.flatnonzero(logp == np.max(logp))
    # read each path as a binary number, final state most significant
    reversed_binary = paths[tied] @ (1 << np.arange(len(obs)))
    return StateSequence(paths[tied[np.argmin(reversed_binary)]], obs.epoch_seconds)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def random_instance(
    rng: np.random.Generator, max_t: int
) -> tuple[LogSeries, hmm.HmmParams]:
    """Random observations of 1 to max_t epochs and valid parameters with mu1 < mu2."""
    t = int(rng.integers(1, max_t + 1))
    values = rng.uniform(0.0, 6.0, size=t)
    # sprinkle exact zeros so the point-mass branch is exercised
    values[rng.random(t) < 0.3] = 0.0
    a11 = rng.uniform(0.05, 0.95)
    a22 = rng.uniform(0.05, 0.95)
    pi0 = rng.uniform(0.05, 0.95)
    mu1 = rng.uniform(-1.0, 3.0)
    return LogSeries(values, 30), hmm.HmmParams(
        a=np.array([[a11, 1 - a11], [1 - a22, a22]]),
        sleep=SleepEmission(
            alpha=rng.uniform(0.05, 0.95), mu1=mu1, sigma1=rng.uniform(0.2, 2.0)
        ),
        wake=WakeEmission(mu2=mu1 + rng.uniform(0.5, 4.0), sigma2=rng.uniform(0.2, 2.0)),
        pi=np.array([pi0, 1 - pi0]),
    )


# name, tolerance on the per-instance error, label of the worst error in
# the detail (None: the detail reports only the first failure)
_ORACLE_CHECKS = (
    ("forward vs enumeration", FORWARD_REL_TOL, "worst rel err"),
    ("viterbi vs enumeration", 0.0, None),
    ("posteriors vs enumeration", POSTERIOR_TOL, "worst abs err"),
)


def run_verification(trials: int = 500, max_t: int = 12, seed: int = 0) -> VerifyReport:
    rng = seeded_rng(seed)
    if trials < 0:
        raise InputError("trials must be >= 0")
    if not 1 <= max_t <= BRUTE_FORCE_MAX_T:
        raise InputError(f"max_t must be in [1, {BRUTE_FORCE_MAX_T}]")

    instance_seeds = rng.integers(0, 2**63 - 1, size=trials)
    errors = np.zeros((trials, len(_ORACLE_CHECKS)))  # columns in _ORACLE_CHECKS order
    for i, inst_seed in enumerate(instance_seeds):
        inst_rng = seeded_rng(int(inst_seed))
        obs, params = random_instance(inst_rng, max_t)
        logp, paths = _path_log_probs(obs, params)
        exact = _logsumexp(logp)
        forward_err = abs(hmm.forward_log_likelihood(obs, params) - exact) / max(1.0, abs(exact))
        # row of the decoded path in the lexicographic path table
        row = hmm.viterbi(obs, params).states @ (1 << np.arange(len(obs) - 1, -1, -1))
        # adjacent equal observations can tie two paths exactly; the
        # decode is correct if it attains the enumeration max
        decode_gap = logp.max() - logp[row]
        gamma = hmm.posterior_marginals(obs, params)
        errors[i] = forward_err, decode_gap, np.max(np.abs(gamma - _posteriors(logp, paths)))
    checks = []
    for (name, tol, label), err in zip(_ORACLE_CHECKS, errors.T):
        bad = instance_seeds[np.flatnonzero(~(err <= tol))]  # a NaN error fails
        parts = [f"{label} {err.max(initial=0.0):.3e}"] if label else []
        if bad.size:
            parts.append(f"first failing instance seed {bad[0]}")
        checks.append(CheckResult(name, not bad.size, "; ".join(parts) or "paths identical"))

    em_bad = None
    for _ in range(EM_RUNS):
        em_seed = int(rng.integers(0, 2**31))
        series, _ = simulate(reference_params(), 500, seed=em_seed)
        obs = log_transform(series)
        report = hmm.baum_welch(obs, hmm.default_init(obs), max_iter=30)
        trace = np.asarray(report.log_likelihood_trace)
        if np.any(np.diff(trace) < -EM_ASCENT_TOL):
            em_bad = em_seed
            break
    checks.append(
        CheckResult(
            "EM log-likelihood ascent",
            em_bad is None,
            "traces non-decreasing"
            if em_bad is None
            else f"decreasing trace at simulation seed {em_bad}",
        )
    )
    return VerifyReport(seed=seed, checks=checks)
