"""HMM engine tests: forward-backward, Viterbi, EM, and the enumeration oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actisleep import hmm
from actisleep.emissions import (
    SIGMA_FLOOR,
    SleepEmission,
    WakeEmission,
    fit_sleep_weighted,
    fit_wake_weighted,
    sleep_log_emission,
)
from actisleep.errors import DegenerateWeightError, InputError
from actisleep.hmm import (
    HmmParams,
    _forward_backward,
    baum_welch,
    default_init,
    forward_log_likelihood,
    posterior_marginals,
    read_params,
    viterbi,
    write_params,
)
from actisleep.postprocess import smooth
from actisleep.series import LogSeries, State, log_transform
from actisleep.simulate import reference_params, simulate
from actisleep.verify import (
    BRUTE_FORCE_MAX_T,
    FORWARD_REL_TOL,
    POSTERIOR_TOL,
    _logsumexp,
    _path_log_probs,
    brute_force_likelihood,
    brute_force_posteriors,
    brute_force_viterbi,
    random_instance,
    score_paths,
)

# default_init's fit swaps, and the swapped pi and a hold exact zeros that
# leave only a state whose density underflows: the scaled re-score divides
# by a zero scale, although the likelihood is finite
SWAP_UNDERFLOW_COUNTS = [0, 0, 0, 1, 2, 0, 1, 2, 0, 2]


def _all_finite(p):
    values = [*p.a.ravel(), *p.pi, *vars(p.sleep).values(), *vars(p.wake).values()]
    return bool(np.all(np.isfinite(values)))


def _sym_params(mu=2.0, sigma=1.0, alpha=1e-300):
    """Sleep and wake emissions numerically identical for positive obs.

    With alpha this small, the zero-inflation corrections to the sleep
    density are far below one ulp, so both states emit bitwise-equal
    log-densities at any positive observation.
    """
    return HmmParams(
        a=np.array([[0.5, 0.5], [0.5, 0.5]]),
        sleep=SleepEmission(alpha=alpha, mu1=mu, sigma1=sigma),
        wake=WakeEmission(mu2=mu, sigma2=sigma),
        pi=np.array([0.5, 0.5]),
    )


def _reference_log_b(obs, params):
    """(T, 2) per-epoch log emission densities."""
    from actisleep.emissions import sleep_log_emission, wake_log_emission

    return np.column_stack(
        [
            sleep_log_emission(obs.values, params.sleep),
            wake_log_emission(obs.values, params.wake),
        ]
    )


def _reference_forward_backward(obs, params):
    """Straightforward per-epoch numpy forward-backward.

    Returns (log_likelihood, gamma, xi) with xi the (T-1, 2, 2) per-step
    pairwise posteriors; the engine under test must agree with it.
    """
    logb = _reference_log_b(obs, params)
    T = logb.shape[0]
    shift = logb.max(axis=1)
    b = np.exp(logb - shift[:, None])
    a = params.a

    alpha = np.empty((T, 2))
    c = np.empty(T)
    alpha[0] = params.pi * b[0]
    c[0] = alpha[0].sum()
    alpha[0] /= c[0]
    for t in range(1, T):
        alpha[t] = (alpha[t - 1] @ a) * b[t]
        c[t] = alpha[t].sum()
        alpha[t] /= c[t]
    log_likelihood = float(np.sum(np.log(c)) + np.sum(shift))

    beta = np.empty((T, 2))
    beta[-1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (a @ (b[t + 1] * beta[t + 1])) / c[t + 1]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)

    xi = np.empty((max(T - 1, 0), 2, 2))
    for t in range(T - 1):
        m = alpha[t][:, None] * a * (b[t + 1] * beta[t + 1])[None, :]
        xi[t] = m / m.sum()
    return log_likelihood, gamma, xi


def _reference_viterbi(obs, params):
    """Straightforward per-epoch numpy Viterbi with argmax (sleep-first) ties."""
    logb = _reference_log_b(obs, params)
    T = logb.shape[0]
    with np.errstate(divide="ignore"):
        log_a = np.log(params.a)
        log_pi = np.log(params.pi)
    delta = log_pi + logb[0]
    backptr = np.zeros((T, 2), dtype=np.int8)
    for t in range(1, T):
        scores = delta[:, None] + log_a  # scores[i, j]
        backptr[t] = np.argmax(scores, axis=0)
        delta = scores[backptr[t], [0, 1]] + logb[t]
    path = np.empty(T, dtype=np.int8)
    path[-1] = np.argmax(delta)
    for t in range(T - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path


class TestHmmParams:
    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(InputError):
            HmmParams(
                a=np.array([[0.9, 0.2], [0.1, 0.9]]),
                sleep=SleepEmission(0.5, 1.0, 1.0),
                wake=WakeEmission(3.0, 1.0),
                pi=np.array([0.5, 0.5]),
            )

    @pytest.mark.parametrize("a", [np.eye(3), [0.9, 0.1], [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]]])
    def test_transition_matrix_not_2x2_rejected(self, a):
        with pytest.raises(InputError, match="transition matrix must be 2x2"):
            HmmParams(
                a=np.array(a),
                sleep=SleepEmission(0.5, 1.0, 1.0),
                wake=WakeEmission(3.0, 1.0),
                pi=np.array([0.5, 0.5]),
            )

    def test_bad_pi_rejected(self):
        with pytest.raises(InputError):
            HmmParams(
                a=np.array([[0.9, 0.1], [0.1, 0.9]]),
                sleep=SleepEmission(0.5, 1.0, 1.0),
                wake=WakeEmission(3.0, 1.0),
                pi=np.array([0.6, 0.5]),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_transition_rejected(self, value):
        with pytest.raises(InputError, match="transition"):
            HmmParams(
                a=np.array([[value, 0.1], [0.1, 0.9]]),
                sleep=SleepEmission(0.5, 1.0, 1.0),
                wake=WakeEmission(3.0, 1.0),
                pi=np.array([0.5, 0.5]),
            )

    def test_nan_pi_rejected(self):
        with pytest.raises(InputError, match="pi"):
            HmmParams(
                a=np.array([[0.9, 0.1], [0.1, 0.9]]),
                sleep=SleepEmission(0.5, 1.0, 1.0),
                wake=WakeEmission(3.0, 1.0),
                pi=np.array([np.nan, 0.5]),
            )

    def test_arrays_frozen(self):
        p = reference_params()
        with pytest.raises(ValueError):
            p.a[0, 0] = 0.5


class TestForward:
    def test_t1_identical_emissions(self):
        p = _sym_params(mu=2.0, sigma=0.1)
        obs = LogSeries(np.array([2.0]), 30)
        from actisleep.emissions import wake_log_emission

        log_d = wake_log_emission(2.0, p.wake)
        assert forward_log_likelihood(obs, p) == pytest.approx(log_d, abs=1e-12)

    def test_identity_transitions_two_frozen_paths(self):
        p = HmmParams(
            a=np.eye(2),
            sleep=SleepEmission(0.5, 1.0, 1.0),
            wake=WakeEmission(3.0, 1.0),
            pi=np.array([0.3, 0.7]),
        )
        obs = LogSeries(np.array([0.5, 1.5, 2.5]), 30)
        from actisleep.emissions import sleep_log_emission, wake_log_emission

        term_sleep = np.log(0.3) + np.sum(sleep_log_emission(obs.values, p.sleep))
        term_wake = np.log(0.7) + np.sum(wake_log_emission(obs.values, p.wake))
        expected = np.logaddexp(term_sleep, term_wake)
        assert forward_log_likelihood(obs, p) == pytest.approx(expected, rel=1e-12)

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(10))
        for _ in range(100):
            obs, params = random_instance(rng, 10)
            exact = brute_force_likelihood(obs, params)
            got = forward_log_likelihood(obs, params)
            assert got == pytest.approx(exact, rel=1e-10, abs=1e-10)


class TestPosteriors:
    def test_symmetric_instance_is_half_half(self):
        p = _sym_params(mu=2.0, sigma=0.1)
        obs = LogSeries(np.array([1.9, 2.0, 2.1]), 30)
        gamma = posterior_marginals(obs, p)
        assert np.allclose(gamma, 0.5, atol=1e-12)

    def test_identity_transitions_pin_state(self):
        p = HmmParams(
            a=np.eye(2),
            sleep=SleepEmission(0.5, 1.0, 1.0),
            wake=WakeEmission(3.0, 1.0),
            pi=np.array([1.0, 0.0]),
        )
        obs = LogSeries(np.array([0.5, 1.5, 2.5, 3.5]), 30)
        gamma = posterior_marginals(obs, p)
        assert np.allclose(gamma[:, 0], 1.0, atol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(100):
            obs, params = random_instance(rng, 10)
            exact = brute_force_posteriors(obs, params)
            got = posterior_marginals(obs, params)
            assert np.max(np.abs(got - exact)) < 1e-10

    def test_rows_normalized(self):
        rng = np.random.Generator(np.random.PCG64(12))
        obs, params = random_instance(rng, 12)
        gamma = posterior_marginals(obs, params)
        assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)

    def test_xi_normalized(self):
        # each per-step pairwise posterior sums to 1 and marginalizes to
        # gamma, so their sum over time does so in aggregate
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(20):
            obs, params = random_instance(rng, 12)
            _, gamma, xi_sum = _forward_backward(obs, params)
            T = len(obs)
            assert xi_sum.shape == (2, 2)
            assert xi_sum.sum() == pytest.approx(T - 1, abs=1e-12)
            assert np.allclose(xi_sum.sum(axis=1), gamma[:-1].sum(axis=0), atol=1e-12)
            assert np.allclose(xi_sum.sum(axis=0), gamma[1:].sum(axis=0), atol=1e-12)

    def test_only_reachable_state_underflowing_scores_its_one_path(self):
        # the sleep density underflows at the observation and pi and a rule
        # out wake: the scaled pass meets a zero scale, yet the one path
        # that stays asleep has a finite score
        p = HmmParams(
            a=np.eye(2),
            sleep=SleepEmission(0.5, 0.0, 0.01),
            wake=WakeEmission(5.0, 1.0),
            pi=np.array([1.0, 0.0]),
        )
        obs = LogSeries(np.array([0.0, 5.0]), 30)
        assert forward_log_likelihood(obs, p) == brute_force_likelihood(obs, p)
        assert forward_log_likelihood(obs, p) == pytest.approx(-124997.00691552777, rel=1e-15)


def _xi_sum_enumerated(obs, params):
    """xi_sum[i, j] = sum over paths of the path's posterior weight times
    its number of i -> j transitions."""
    logp, paths = _path_log_probs(obs, params)
    weights = np.exp(logp - _logsumexp(logp))
    return np.array([
        [weights @ np.sum((paths[:, :-1] == i) & (paths[:, 1:] == j), axis=1) for j in (0, 1)]
        for i in (0, 1)
    ])


def _exact_zero_instance(rng):
    """T <= 16 epochs under parameters with an exact 0 or a tiny edge:
    either a unit row in a (a state that never leaves, or always leaves),
    or half the time that row with a tiny edge 10^-U(150, 307) in place of
    its 0, with any pi, or a positive a with a unit pi.  One emission is
    narrow (sigma 0.003-0.03) and the other may be wider (0.003-0.3), and
    most observations lie near a state's mean, so one state's density is
    often out of float range of the other's, in one direction or both:
    the scaled pass then meets a zero or subnormal scale, or a lineage
    lost to underflow."""
    t = int(rng.integers(2, BRUTE_FORCE_MAX_T + 1))
    stay = rng.uniform(0.05, 0.95, size=2)
    a = np.array([[stay[0], 1 - stay[0]], [1 - stay[1], stay[1]]])
    if rng.random() < 2 / 3:
        edge = (0.0, 10 ** -rng.uniform(150, 307))[rng.integers(2)]
        a[rng.integers(2)] = np.abs(np.eye(2)[rng.integers(2)] - edge)
        pi_sleep = (0.0, 1.0, 0.5, rng.uniform(0.05, 0.95))[rng.integers(4)]
    else:
        pi_sleep = float(rng.integers(2))
    sigma = rng.permutation([10 ** rng.uniform(-2.5, -1.5), 10 ** rng.uniform(-2.5, -0.5)])
    mu = np.array([0.0, rng.uniform(1.0, 3.0)]) + rng.uniform(0.0, 1.0)
    params = HmmParams(
        a=a,
        sleep=SleepEmission(alpha=rng.uniform(0.05, 0.95), mu1=mu[0], sigma1=sigma[0]),
        wake=WakeEmission(mu2=mu[1], sigma2=sigma[1]),
        pi=np.array([pi_sleep, 1 - pi_sleep]),
    )
    states = rng.integers(2, size=t)
    values = np.maximum(mu[states] + sigma[states] * rng.normal(size=t), 0.0)
    values[rng.random(t) < 0.3] = 0.0
    return LogSeries(values, 30), params


def _assert_matches_enumeration(obs, params):
    """Check ``_forward_backward`` on one instance against the enumeration;
    return whether it handed over to ``_log_forward_backward``."""
    with mock.patch.object(
        hmm, "_log_forward_backward", wraps=hmm._log_forward_backward
    ) as log_space:
        log_likelihood, gamma, xi_sum = _forward_backward(obs, params)
    assert np.isfinite(log_likelihood)
    assert np.all(np.isfinite(gamma)) and np.all(np.isfinite(xi_sum))
    # log-likelihoods here reach -1e6, where the float enumeration is
    # itself off an exact one: errors are relative to max(1, |exact|)
    exact = brute_force_likelihood(obs, params)
    scale = max(1.0, abs(exact))
    assert abs(log_likelihood - exact) <= FORWARD_REL_TOL * scale
    gap = np.max(np.abs(gamma - brute_force_posteriors(obs, params)))
    assert gap <= POSTERIOR_TOL * scale
    gap = np.max(np.abs(xi_sum - _xi_sum_enumerated(obs, params)))
    assert gap <= POSTERIOR_TOL * scale
    return log_space.called


class TestLogSpaceFallback:
    def test_exact_zero_instances_match_enumeration(self):
        rng = np.random.Generator(np.random.PCG64(20))
        reached = sum(_assert_matches_enumeration(*_exact_zero_instance(rng)) for _ in range(150))
        assert reached >= 60  # 70 of the 150 at this seed

    @pytest.mark.parametrize("a11", [0.0, 1e-300, 1e-250])
    def test_lineage_dropped_with_finite_beta_matches_enumeration(self, a11):
        # sleep (all but) never stays, so the zero at epoch 6, after a
        # sleep-like epoch, is wake at e^-1007 of sleep's density: the
        # scaled pass drops that lineage though it holds the posterior, and
        # its beta stays finite; the pass alone gave -1,267.25 (-1,143.74
        # at 1e-250) against the enumeration's -1,000.86
        params = HmmParams(
            a=np.array([[a11, 1 - a11], [0.19802975677066514, 0.8019702432293349]]),
            sleep=SleepEmission(
                alpha=0.2284709203610053, mu1=0.6596880796206108, sigma1=0.016956155102359694
            ),
            wake=WakeEmission(mu2=3.159682066543284, sigma2=0.07030196635463924),
            pi=np.array([0.7389698374240629, 1 - 0.7389698374240629]),
        )
        values = [
            3.248297216751351, 0.661563254515787, 3.1752194896690407, 3.1048611714995262,
            3.205711081745811, 0.6488137675484474, 0.0, 0.6549063085022023,
        ]
        assert _assert_matches_enumeration(LogSeries(np.array(values), 30), params)

    @pytest.mark.parametrize("t", range(2, 13))
    def test_absorbing_wake_matches_enumeration(self, t):
        # the first epoch leaves sleep's forward mass at 0; wake never
        # leaves, so the scaled pass stays in wake while the sleep lineage
        # it lost explains the rest: from T = 3 on its beta overflows
        params = HmmParams(
            a=np.array([[0.9, 0.1], [0.0, 1.0]]),
            sleep=SleepEmission(alpha=0.5, mu1=2.17, sigma1=0.05),
            wake=WakeEmission(mu2=5.0, sigma2=0.1),
            pi=np.array([0.5, 0.5]),
        )
        obs = LogSeries(np.array([5.0] + [2.17] * (t - 1)), 30)
        reached = _assert_matches_enumeration(obs, params)
        assert reached or t < 3
        gamma = posterior_marginals(obs, params)
        assert np.all(np.abs(gamma.sum(axis=1) - 1.0) <= 1e-12)

    def test_subnormal_scale_matches_enumeration(self):
        # sleep holds all of pi, and its density at the first epoch is
        # e^-744.2 of wake's: the first scale is subnormal
        params = HmmParams(
            a=np.array([[0.5, 0.5], [0.5, 0.5]]),
            sleep=SleepEmission(alpha=0.5, mu1=1.0, sigma1=0.05),
            wake=WakeEmission(mu2=3.0, sigma2=1.0),
            pi=np.array([1.0, 0.0]),
        )
        assert _assert_matches_enumeration(LogSeries(np.array([2.932, 1.0]), 30), params)

    def test_simulated_week_fit_stays_scaled(self):
        series, _ = simulate(reference_params(), 20160, seed=3)
        obs = log_transform(series)
        with mock.patch.object(
            hmm, "_log_forward_backward", wraps=hmm._log_forward_backward
        ) as log_space:
            baum_welch(obs, default_init(obs))
        log_space.assert_not_called()

    def test_agrees_with_scaled_pass_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(100):
            obs, params = random_instance(rng, BRUTE_FORCE_MAX_T)
            log_likelihood, gamma, xi_sum = _forward_backward(obs, params)
            log_space = hmm._log_forward_backward(*hmm.log_terms(obs, params))
            scale = max(1.0, abs(log_likelihood))
            assert abs(log_space[0] - log_likelihood) <= FORWARD_REL_TOL * scale
            assert np.max(np.abs(log_space[1] - gamma)) <= POSTERIOR_TOL
            assert np.max(np.abs(log_space[2] - xi_sum)) <= POSTERIOR_TOL
            # the scaled pass's xi_sum against the enumeration
            gap = np.max(np.abs(xi_sum - _xi_sum_enumerated(obs, params)))
            assert gap <= POSTERIOR_TOL


class TestViterbi:
    def test_all_zero_counts_decode_sleep(self):
        obs = LogSeries(np.zeros(50), 30)
        path = viterbi(obs, reference_params())
        assert np.all(path.states == State.SLEEP)

    def test_matches_enumeration(self):
        # Exact path equality whenever the argmax is unique.  Adjacent
        # zero-count epochs can produce genuinely tied paths (equal
        # probability in exact arithmetic); there the decoded path must
        # still attain the enumeration maximum exactly.
        rng = np.random.Generator(np.random.PCG64(14))
        n_tied = 0
        for _ in range(200):
            obs, params = random_instance(rng, 12)
            got = viterbi(obs, params)
            expected = brute_force_viterbi(obs, params)
            if np.array_equal(got.states, expected.states):
                continue
            logp, _ = _path_log_probs(obs, params)
            best = np.max(logp)
            assert np.sum(logp == best) > 1, "paths differ without a tie"
            assert score_paths(obs, params, got.states[None, :])[0] == best
            n_tied += 1
        assert n_tied <= 5  # genuine ties stay rare

    def test_exact_ties_resolve_to_sleep(self):
        # bitwise-identical emissions, symmetric transitions: every path
        # ties, and the declared rule picks all-sleep
        p = _sym_params(mu=2.0, sigma=0.1)
        obs = LogSeries(np.full(8, 2.0), 30)
        path = viterbi(obs, p)
        assert np.all(path.states == State.SLEEP)
        assert np.array_equal(path.states, brute_force_viterbi(obs, p).states)

    def test_exact_ties_with_mixed_obs(self):
        rng = np.random.Generator(np.random.PCG64(15))
        p = _sym_params(mu=2.0, sigma=0.1)
        for _ in range(20):
            obs = LogSeries(rng.uniform(1.5, 2.5, size=10), 30)
            assert np.array_equal(
                viterbi(obs, p).states, brute_force_viterbi(obs, p).states
            )

    def test_path_log_prob_equals_enumeration_max(self):
        from actisleep.verify import _path_log_probs

        rng = np.random.Generator(np.random.PCG64(16))
        for _ in range(50):
            obs, params = random_instance(rng, 10)
            path = viterbi(obs, params)
            logp, paths = _path_log_probs(obs, params)
            idx = int(np.dot(path.states, 2 ** np.arange(len(obs) - 1, -1, -1)))
            assert logp[idx] == np.max(logp)


def _loop_traceback(backptr, final):
    """The per-step traceback loop ``hmm._traceback`` replaced, as its oracle."""
    T = backptr.shape[1]
    path = np.empty(T, dtype=np.int8)
    state = path[T - 1] = final
    for t in range(T - 1, 0, -1):
        state = path[t - 1] = backptr[state, t]
    return path


class TestTraceback:
    # (backptr[0, t], backptr[1, t]): constant sleep, identity, swap, constant wake
    MAPS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int8)

    def _backptr(self, maps):
        backptr = np.zeros((2, len(maps) + 1), dtype=np.int8)
        backptr[:, 1:] = self.MAPS[maps].T
        return backptr

    def test_every_map_sequence_up_to_six_epochs(self):
        # T = 1 and T = 2 included: every sequence of the four step maps
        for steps in range(6):
            for code in range(4**steps):
                maps = [(code >> (2 * k)) & 3 for k in range(steps)]
                backptr = self._backptr(maps)
                for final in (0, 1):
                    got = hmm._traceback(backptr, final)
                    assert got.dtype == np.int8
                    assert np.array_equal(got, _loop_traceback(backptr, final))

    @pytest.mark.parametrize("swap_share", [0.0, 0.5, 0.99, 1.0])
    def test_random_backpointers(self, swap_share):
        rng = np.random.Generator(np.random.PCG64(40))
        for _ in range(50):
            steps = int(rng.integers(0, 3000))
            # swap maps at swap_share, the other three maps share the rest
            maps = np.where(
                rng.random(steps) < swap_share, 2, rng.choice([0, 1, 3], steps)
            )
            backptr = self._backptr(maps)
            final = int(rng.integers(0, 2))
            assert np.array_equal(
                hmm._traceback(backptr, final), _loop_traceback(backptr, final)
            )

    def test_anti_persistent_chain_matches_enumeration(self, monkeypatch):
        # a01 a10 > a00 a11: each state's best predecessor can be the other
        # state, so swap maps occur on the decoded inputs
        swaps = []
        traceback = hmm._traceback

        def counting(backptr, final):
            swaps.append(int(np.sum(backptr[0] > backptr[1])))
            return traceback(backptr, final)

        monkeypatch.setattr(hmm, "_traceback", counting)
        rng = np.random.Generator(np.random.PCG64(41))
        for _ in range(100):
            params = HmmParams(
                a=np.array([[0.15, 0.85], [0.9, 0.1]]),
                sleep=SleepEmission(alpha=0.3, mu1=1.0, sigma1=1.0),
                wake=WakeEmission(mu2=rng.uniform(1.2, 3.0), sigma2=1.0),
                pi=np.array([0.5, 0.5]),
            )
            # positive values only, so no two paths tie
            obs = LogSeries(rng.uniform(0.1, 4.0, int(rng.integers(1, 13))), 30)
            assert np.array_equal(
                viterbi(obs, params).states, brute_force_viterbi(obs, params).states
            )
        assert sum(swaps) > 0


def _reference_cases():
    """(name, obs, params): random, all-zero, tie-heavy and week-long inputs."""
    rng = np.random.Generator(np.random.PCG64(30))
    for k in range(20):
        obs, params = random_instance(rng, 12)
        yield f"short-{k}", obs, params
    for k in range(20):
        obs, params = random_instance(rng, 300)
        yield f"random-{k}", obs, params
    yield "all-zero", LogSeries(np.zeros(500), 30), reference_params()
    obs, params = random_instance(rng, 2)
    yield "all-zero-random-params", LogSeries(np.zeros(200), 30), params
    yield "ties", LogSeries(np.full(64, 2.0), 30), _sym_params(mu=2.0, sigma=0.1)
    yield "ties-mixed", LogSeries(rng.uniform(1.5, 2.5, 300), 30), _sym_params(
        mu=2.0, sigma=0.1
    )
    # emissions mirrored about 41 (bitwise-equal there, wake ahead at 43,
    # sleep ahead at 39) and flat transitions: ties also arise on the
    # path into a wake epoch, where the predecessor must be sleep
    mirrored = HmmParams(
        a=np.full((2, 2), 0.5),
        sleep=SleepEmission(alpha=1e-300, mu1=40.0, sigma1=1.0),
        wake=WakeEmission(mu2=42.0, sigma2=1.0),
        pi=np.array([0.5, 0.5]),
    )
    yield "ties-into-wake", LogSeries(np.repeat([41.0, 43.0], 6), 30), mirrored
    yield "ties-mixed-wake", LogSeries(rng.choice([39.0, 41.0, 43.0], 300), 30), mirrored
    yield "single-epoch", LogSeries(np.array([1.0]), 30), reference_params()
    series, _ = simulate(reference_params(), 20160, seed=31)
    yield "week", log_transform(series), reference_params()


@pytest.fixture(scope="module", params=list(_reference_cases()), ids=lambda c: c[0])
def reference_case(request):
    return request.param[1:]


class TestAgainstReferenceLoops:
    """The float-loop recursions against the per-epoch numpy loops."""

    def test_forward_backward(self, reference_case):
        obs, params = reference_case
        ll, gamma, xi_sum = _forward_backward(obs, params)
        ref_ll, ref_gamma, ref_xi = _reference_forward_backward(obs, params)
        assert ll == pytest.approx(ref_ll, rel=1e-12, abs=1e-12)
        assert gamma.shape == ref_gamma.shape
        assert np.max(np.abs(gamma - ref_gamma)) <= 1e-12
        assert np.allclose(xi_sum, ref_xi.sum(axis=0), rtol=1e-10, atol=1e-12)

    def test_viterbi(self, reference_case):
        obs, params = reference_case
        got = viterbi(obs, params)
        expected = _reference_viterbi(obs, params)
        assert got.states.dtype == np.int8
        assert np.array_equal(got.states, expected)
        best = score_paths(obs, params, got.states[None, :])[0]
        assert best == score_paths(obs, params, expected[None, :])[0]
        if len(obs) <= 16:
            from actisleep.verify import _path_log_probs

            logp, _ = _path_log_probs(obs, params)
            assert best == np.max(logp)


class TestBruteForceGuard:
    def test_length_17_refused(self):
        obs = LogSeries(np.ones(17), 30)
        with pytest.raises(InputError):
            brute_force_likelihood(obs, reference_params())

    def test_t1_reduces_to_mixture(self):
        p = reference_params()
        obs = LogSeries(np.array([2.0]), 30)
        from actisleep.emissions import sleep_log_emission, wake_log_emission

        expected = np.logaddexp(
            np.log(p.pi[0]) + sleep_log_emission(2.0, p.sleep),
            np.log(p.pi[1]) + wake_log_emission(2.0, p.wake),
        )
        assert brute_force_likelihood(obs, p) == pytest.approx(expected, rel=1e-12)


class TestDefaultInit:
    def test_all_zero_fallback(self):
        obs = LogSeries(np.zeros(20), 30)
        p = default_init(obs)
        assert p.sleep.alpha == 0.95
        assert p.sleep.mu1 == 1.0
        assert p.wake.mu2 == 3.0

    def test_ordering_on_simulated_data(self):
        series, _ = simulate(reference_params(), 2000, seed=20)
        obs = log_transform(series)
        p = default_init(obs)
        assert p.sleep.mu1 < p.wake.mu2

    def test_deterministic(self):
        series, _ = simulate(reference_params(), 500, seed=21)
        obs = log_transform(series)
        p1, p2 = default_init(obs), default_init(obs)
        assert p1.sleep == p2.sleep
        assert p1.wake == p2.wake
        assert np.array_equal(p1.a, p2.a)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.lists(st.floats(0.0, 12.0), min_size=1, max_size=400),
            # log counts: many ties
            st.lists(st.integers(1, 6).map(lambda c: np.log(c + 1.0)), min_size=1, max_size=400),
        ),
        st.sampled_from([40, 60]),
    )
    @example([2.5], 40)
    @example([0.5, 1.5], 60)
    def test_percentile_is_numpys_bitwise(self, values, q):
        values = np.array(values)
        expected = np.percentile(values, q)
        assert np.float64(hmm._percentile(values, q)).tobytes() == expected.tobytes()


class TestBaumWelch:
    def test_trace_non_decreasing(self):
        series, _ = simulate(reference_params(), 2000, seed=22)
        obs = log_transform(series)
        report = baum_welch(obs, default_init(obs))
        trace = np.asarray(report.log_likelihood_trace)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_fixed_point_converges_quickly(self):
        series, _ = simulate(reference_params(), 2000, seed=23)
        obs = log_transform(series)
        first = baum_welch(obs, default_init(obs))
        again = baum_welch(obs, first.params)
        assert again.converged
        assert again.iterations <= 2

    def test_state_unoccupied_before_last_epoch(self):
        # wake is all but impossible until the final epoch, so its
        # expected transition counts vanish; its row must stay valid
        counts = np.array([0.0] * 99 + [5000.0])
        obs = LogSeries(np.log1p(counts), 30)
        report = baum_welch(obs, default_init(obs))
        p = report.params
        assert np.all(np.isfinite(p.a)) and np.all(np.isfinite(p.pi))
        assert np.allclose(p.a.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite([p.sleep.alpha, p.sleep.mu1, p.sleep.sigma1]).all()
        assert np.isfinite([p.wake.mu2, p.wake.sigma2]).all()
        assert np.all(np.diff(report.log_likelihood_trace) >= -1e-9)

    def test_degenerate_m_step_names_its_iteration(self):
        # no epoch is zero and the sleep density is a spike far below them
        # all, so the first E-step gives sleep no weight anywhere
        obs = LogSeries(np.log1p(np.arange(1, 21) * 10.0), 30)
        init = HmmParams(
            a=np.array([[0.9, 0.1], [0.1, 0.9]]),
            sleep=SleepEmission(alpha=0.5, mu1=-5.0, sigma1=0.001),
            wake=WakeEmission(mu2=3.0, sigma2=1.0),
            pi=np.array([0.5, 0.5]),
        )
        with pytest.raises(DegenerateWeightError, match="EM iteration 1: all weights are zero"):
            baum_welch(obs, init)

    @staticmethod
    def _sleep_m_steps(monkeypatch, obs):
        """Fit from the default init, recording each sleep M-step call."""
        calls = []
        fit = hmm.fit_sleep_weighted

        def recording(o, w, init):
            result = fit(o, w, init)
            calls.append((o, w, init, result))
            return result

        monkeypatch.setattr(hmm, "fit_sleep_weighted", recording)
        return baum_welch(obs, default_init(obs)), calls

    def test_sleep_m_step_never_keeps_init(self, monkeypatch):
        # E-step and M-step score the same sleep likelihood, so every
        # M-step moves (mu1, sigma1) instead of stalling at its start
        series, _ = simulate(reference_params(), 2880, seed=7)
        _, calls = self._sleep_m_steps(monkeypatch, log_transform(series))
        assert calls
        for _, _, init, result in calls:
            assert result is not init
            assert (result.mu1, result.sigma1) != (init.mu1, init.sigma1)

    def test_sleep_alpha_is_weighted_zero_fraction_at_large_counts(self, monkeypatch):
        # counts far above e^10 put mu1's start outside its box; alpha's
        # closed-form update must still run on every M-step
        series, truth = simulate(reference_params(), 2880, seed=7)
        obs = LogSeries(np.log1p(series.counts * 1e5), 30)
        report, calls = self._sleep_m_steps(monkeypatch, obs)
        assert calls and not report.swapped
        for o, w, _, result in calls:
            assert result.alpha == pytest.approx(np.sum(w[o == 0.0]) / np.sum(w), rel=1e-12)
        assert report.params.sleep.alpha == calls[-1][3].alpha
        sleep_zero_fraction = np.mean(series.counts[truth.states == State.SLEEP] == 0)
        assert report.params.sleep.alpha == pytest.approx(sleep_zero_fraction, abs=0.02)

    def test_too_short_rejected(self):
        obs = LogSeries(np.ones(5), 30)
        with pytest.raises(InputError):
            baum_welch(obs, reference_params())

    @pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf])
    def test_bad_tol_rejected(self, tol):
        obs = LogSeries(np.ones(20), 30)
        with pytest.raises(InputError, match="tol"):
            baum_welch(obs, reference_params(), tol=tol)

    def test_negative_max_iter_rejected(self):
        obs = LogSeries(np.ones(20), 30)
        with pytest.raises(InputError, match="max_iter"):
            baum_welch(obs, reference_params(), max_iter=-1)

    def test_zero_max_iter_scores_init(self):
        obs = LogSeries(np.ones(20), 30)
        report = baum_welch(obs, reference_params(), max_iter=0)
        assert report.iterations == 0
        assert report.log_likelihood_trace == [
            forward_log_likelihood(obs, reference_params())
        ]

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_max_iter_counts_m_steps(self, max_iter):
        # a tol no real step meets: every allowed M-step runs
        series, _ = simulate(reference_params(), 2880, seed=7)
        obs = log_transform(series)
        report = baum_welch(obs, default_init(obs), tol=1e-300, max_iter=max_iter)
        assert report.iterations == max_iter
        assert len(report.log_likelihood_trace) == max_iter + 1
        assert not report.converged

    def test_restart_from_fixed_point_converges_after_one_m_step(self):
        series, _ = simulate(reference_params(), 2880, seed=7)
        obs = log_transform(series)
        again = baum_welch(obs, baum_welch(obs, default_init(obs)).params)
        assert (again.iterations, len(again.log_likelihood_trace), again.converged) == (
            1, 2, True
        )

    def test_stops_at_first_pair_within_tol(self):
        series, _ = simulate(reference_params(), 2880, seed=7)
        obs = log_transform(series)
        report = baum_welch(obs, default_init(obs))
        trace = report.log_likelihood_trace
        within = [
            abs(b - a) <= hmm.DEFAULT_TOL * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])
        ]
        assert report.converged
        assert within.index(True) == len(within) - 1
        assert report.iterations == len(trace) - 1

    def test_swap_enforces_mu_ordering(self):
        series, _ = simulate(reference_params(), 2000, seed=24)
        obs = log_transform(series)
        # start with the state labels flipped: "sleep" gets the high mean
        flipped = HmmParams(
            a=np.array([[0.945, 0.055], [0.04, 0.96]]),
            sleep=SleepEmission(alpha=0.01, mu1=4.8, sigma1=0.9),
            wake=WakeEmission(mu2=1.5, sigma2=1.3),
            pi=np.array([0.5, 0.5]),
        )
        report = baum_welch(obs, flipped)
        assert report.params.sleep.mu1 < report.params.wake.mu2

    def test_swapped_fit_reports_the_log_likelihood_of_its_params(self):
        # the swap keeps alpha with sleep, so the swapped model is not the
        # fitted one relabelled and the trace's last value is not its score
        obs = LogSeries(np.log1p([200, 2000, 20, 0, 0, 0, 0, 200, 0, 400]), 30)
        report = baum_welch(obs, default_init(obs))
        assert report.swapped
        assert report.log_likelihood == forward_log_likelihood(obs, report.params)
        assert report.log_likelihood == pytest.approx(-18.8895, abs=1e-4)
        assert report.log_likelihood_trace[-1] == pytest.approx(-12.9245, abs=1e-4)
        assert np.all(np.diff(report.log_likelihood_trace) >= 0.0)

    def test_unswapped_fit_reports_its_last_e_step(self):
        series, _ = simulate(reference_params(), 1000, seed=25)
        obs = log_transform(series)
        report = baum_welch(obs, default_init(obs))
        assert not report.swapped
        assert report.log_likelihood == report.log_likelihood_trace[-1]
        assert report.log_likelihood == forward_log_likelihood(obs, report.params)

    def test_swapped_fit_whose_scaled_rescore_underflows_scores_in_log_space(self):
        obs = LogSeries(np.log1p(SWAP_UNDERFLOW_COUNTS), 30)
        report = baum_welch(obs, default_init(obs))
        p = report.params
        assert report.swapped and _all_finite(p)
        assert type(report.log_likelihood) is float
        exact = brute_force_likelihood(obs, p)
        assert abs(report.log_likelihood - exact) <= FORWARD_REL_TOL * abs(exact)
        # the posteriors of the returned parameters take the same log-space pass
        gap = np.max(np.abs(posterior_marginals(obs, p) - brute_force_posteriors(obs, p)))
        assert gap <= POSTERIOR_TOL * abs(exact)

    def test_deterministic(self):
        series, _ = simulate(reference_params(), 1000, seed=25)
        obs = log_transform(series)
        r1 = baum_welch(obs, default_init(obs))
        r2 = baum_welch(obs, default_init(obs))
        assert r1.params.sleep == r2.params.sleep
        assert r1.params.wake == r2.params.wake
        assert np.array_equal(r1.params.a, r2.params.a)
        assert r1.log_likelihood_trace == r2.log_likelihood_trace

    def test_mu1_leaves_a_start_above_10(self):
        # log1p(counts x 1e5) puts the positives near 11-19; under an absolute
        # upper mu1 bound of 10 every sleep M-step kept default_init's 14.25
        series, _ = simulate(reference_params(), 2880, seed=7)
        obs = LogSeries(np.log1p(series.counts * 1e5), 30)
        init = default_init(obs)
        assert init.sleep.mu1 == pytest.approx(14.25, abs=0.01)
        w = posterior_marginals(obs, init)[:, 0]
        fitted = fit_sleep_weighted(obs.values, w, init.sleep)
        kept = SleepEmission(fitted.alpha, init.sleep.mu1, init.sleep.sigma1)
        assert abs(fitted.mu1 - init.sleep.mu1) > 0.1
        assert np.dot(w, sleep_log_emission(obs.values, fitted)) > np.dot(
            w, sleep_log_emission(obs.values, kept)
        )
        report = baum_welch(obs, init)
        assert abs(report.params.sleep.mu1 - init.sleep.mu1) > 0.1
        assert np.all(np.diff(report.log_likelihood_trace) >= -1e-9)

    @pytest.mark.parametrize("t_epochs", [2880, 20160])  # a night and a week
    def test_wake_m_step_is_the_two_pass_weighted_moments_bitwise(self, t_epochs):
        def two_pass(o, w):
            wsum = np.sum(w)
            mu = float(np.sum(w * o) / wsum)
            var = float(np.sum(w * (o - mu) ** 2) / wsum)
            return WakeEmission(mu2=mu, sigma2=float(max(np.sqrt(var), SIGMA_FLOOR)))

        same = []

        def checked(o, w):
            fitted = fit_wake_weighted(o, w)
            same.append(fitted == two_pass(o, w))
            return fitted

        series, _ = simulate(reference_params(), t_epochs, seed=3)
        obs = log_transform(series)
        with mock.patch.object(hmm, "fit_wake_weighted", checked):
            baum_welch(obs, default_init(obs))
        assert len(same) > 1 and all(same)


class TestParamsIo:
    def test_round_trip_exact(self, tmp_path):
        p = reference_params()
        path = tmp_path / "params.txt"
        write_params(p, path)
        q = read_params(path)
        assert q.sleep == p.sleep
        assert q.wake == p.wake
        assert np.array_equal(q.a, p.a)
        assert np.array_equal(q.pi, p.pi)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("a11=0.9\n")
        from actisleep.errors import FormatError

        with pytest.raises(FormatError, match="missing keys"):
            read_params(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("zeta=1.0\n")
        from actisleep.errors import FormatError

        with pytest.raises(FormatError, match="unknown key"):
            read_params(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        write_params(reference_params(), path)
        with open(path, "a") as fh:
            fh.write("mu1=2.0\n")
        from actisleep.errors import FormatError

        with pytest.raises(FormatError, match="line 12: repeated key 'mu1'"):
            read_params(path)

    @pytest.mark.parametrize(
        "key, value", [("a11", "nan"), ("mu2", "nan"), ("sigma2", "inf")]
    )
    def test_non_finite_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "params.txt"
        write_params(reference_params(), path)
        lines = [
            f"{key}={value}" if line.startswith(f"{key}=") else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError):
            read_params(path)


@st.composite
def raw_counts(draw):
    """Count arrays of 10 to 500 epochs, up to 1e9 counts: runs of zeros,
    constant runs, noise in {0, 1, 2}, with up to three spikes on top."""
    t = draw(st.one_of(st.integers(10, BRUTE_FORCE_MAX_T), st.integers(10, 500)))
    level = st.one_of(st.just(0), st.integers(0, 2), st.integers(0, 10**9))
    runs = draw(st.lists(st.tuples(st.integers(1, t), level), min_size=1, max_size=12))
    counts = np.concatenate([np.full(n, value, dtype=np.int64) for n, value in runs])
    counts = np.resize(counts, t)  # repeats the runs up to t epochs
    spikes = st.tuples(st.integers(0, t - 1), st.integers(1, 10**9))
    for index, value in draw(st.lists(spikes, max_size=3)):
        counts[index] = value
    return counts


class TestRawCountProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(raw_counts())
    @example(np.array(SWAP_UNDERFLOW_COUNTS))
    def test_fit_decode_smooth_is_finite_and_scores_its_params(self, counts):
        obs = LogSeries(np.log1p(counts.astype(np.float64)), 30)
        report = baum_welch(obs, default_init(obs))
        p = report.params
        assert _all_finite(p)
        assert np.isfinite(report.log_likelihood)
        labels = smooth(viterbi(obs, p))
        assert len(labels) == len(counts)
        if not report.swapped:
            assert report.log_likelihood == report.log_likelihood_trace[-1]
        assert forward_log_likelihood(obs, p) == report.log_likelihood
        trace = report.log_likelihood_trace
        for before, after in zip(trace, trace[1:]):
            assert after >= before - 1e-12 * max(1.0, abs(before))
        gamma = posterior_marginals(obs, p)
        assert np.all(np.isfinite(gamma))
        assert np.all(np.abs(gamma.sum(axis=1) - 1.0) <= 1e-12)
        if len(counts) <= BRUTE_FORCE_MAX_T:
            # relative to max(1, |exact|), as ``verify`` measures the forward
            # pass: all-zero counts score about -1e-5, where rounding at
            # the scale of the per-epoch terms is 1e-15 absolute
            exact = brute_force_likelihood(obs, p)
            gap = abs(report.log_likelihood - exact)
            assert gap <= FORWARD_REL_TOL * max(1.0, abs(exact))
            gap = np.max(np.abs(gamma - brute_force_posteriors(obs, p)))
            assert gap <= POSTERIOR_TOL * max(1.0, abs(exact))
