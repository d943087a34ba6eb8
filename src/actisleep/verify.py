"""Randomized self-checks against the brute-force path-enumeration oracles.

Generates random short instances (valid parameters plus observations),
then cross-checks the scaled forward likelihood, posterior marginals and
Viterbi path against exhaustive enumeration, and checks EM ascent on a
few simulated series.  The check functions are injectable so tests can
demonstrate that a faulty implementation is caught.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hmm
from .emissions import SleepEmission, WakeEmission
from .series import LogSeries, log_transform
from .simulate import SimSpec, reference_params, simulate

FORWARD_REL_TOL = 1e-10
POSTERIOR_TOL = 1e-10
EM_ASCENT_TOL = 1e-9


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


def random_params(rng: np.random.Generator) -> hmm.HmmParams:
    """A random valid parameter set with mu1 < mu2."""
    a11 = rng.uniform(0.05, 0.95)
    a22 = rng.uniform(0.05, 0.95)
    pi0 = rng.uniform(0.05, 0.95)
    mu1 = rng.uniform(-1.0, 3.0)
    return hmm.HmmParams(
        a=np.array([[a11, 1 - a11], [1 - a22, a22]]),
        sleep=SleepEmission(
            alpha=rng.uniform(0.05, 0.95),
            mu1=mu1,
            sigma1=rng.uniform(0.2, 2.0),
        ),
        wake=WakeEmission(
            mu2=mu1 + rng.uniform(0.5, 4.0), sigma2=rng.uniform(0.2, 2.0)
        ),
        pi=np.array([pi0, 1 - pi0]),
    )


def random_instance(
    rng: np.random.Generator, max_t: int
) -> tuple[LogSeries, hmm.HmmParams]:
    t = int(rng.integers(1, max_t + 1))
    values = rng.uniform(0.0, 6.0, size=t)
    # sprinkle exact zeros so the point-mass branch is exercised
    values[rng.random(t) < 0.3] = 0.0
    return LogSeries(values, 30), random_params(rng)


def run_verification(
    trials: int = 500,
    max_t: int = 12,
    seed: int = 0,
    forward_fn=None,
    viterbi_fn=None,
    posterior_fn=None,
    em_runs: int = 5,
) -> VerifyReport:
    forward_fn = forward_fn or hmm.forward_log_likelihood
    viterbi_fn = viterbi_fn or hmm.viterbi
    posterior_fn = posterior_fn or hmm.posterior_marginals
    rng = np.random.Generator(np.random.PCG64(seed))
    checks: list[CheckResult] = []

    instance_seeds = rng.integers(0, 2**63 - 1, size=trials)
    fwd_bad = vit_bad = post_bad = None
    fwd_worst = post_worst = 0.0
    for inst_seed in instance_seeds:
        inst_rng = np.random.Generator(np.random.PCG64(int(inst_seed)))
        obs, params = random_instance(inst_rng, max_t)
        exact = hmm.brute_force_likelihood(obs, params)
        got = forward_fn(obs, params)
        rel = abs(got - exact) / max(1.0, abs(exact))
        fwd_worst = max(fwd_worst, rel)
        if rel > FORWARD_REL_TOL and fwd_bad is None:
            fwd_bad = int(inst_seed)
        decoded = viterbi_fn(obs, params)
        if not np.array_equal(
            decoded.states, hmm.brute_force_viterbi(obs, params).states
        ):
            # adjacent equal observations can tie two paths exactly; the
            # decode is still correct if it attains the enumeration max
            best = hmm.path_log_probability(
                obs, params, hmm.brute_force_viterbi(obs, params)
            )
            if hmm.path_log_probability(obs, params, decoded) != best:
                if vit_bad is None:
                    vit_bad = int(inst_seed)
        err = np.max(
            np.abs(posterior_fn(obs, params) - hmm.brute_force_posteriors(obs, params))
        )
        post_worst = max(post_worst, float(err))
        if err > POSTERIOR_TOL and post_bad is None:
            post_bad = int(inst_seed)
    checks.append(
        CheckResult(
            "forward vs enumeration",
            fwd_bad is None,
            f"worst rel err {fwd_worst:.3e}"
            + (f"; first failing instance seed {fwd_bad}" if fwd_bad is not None else ""),
        )
    )
    checks.append(
        CheckResult(
            "viterbi vs enumeration",
            vit_bad is None,
            "paths identical"
            if vit_bad is None
            else f"first failing instance seed {vit_bad}",
        )
    )
    checks.append(
        CheckResult(
            "posteriors vs enumeration",
            post_bad is None,
            f"worst abs err {post_worst:.3e}"
            + (f"; first failing instance seed {post_bad}" if post_bad is not None else ""),
        )
    )

    em_bad = None
    for k in range(em_runs):
        em_seed = int(rng.integers(0, 2**31))
        series, _ = simulate(
            SimSpec(params=reference_params(), t_epochs=500, seed=em_seed)
        )
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
