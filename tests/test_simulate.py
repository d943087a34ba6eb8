"""Simulator tests: determinism, degenerate specs, and law-of-large-numbers checks."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from actisleep import SimSpec, reference_params, simulate, simulate_from_states
from actisleep.errors import InputError
from actisleep.hmm import HmmParams
from actisleep.emissions import ALPHA_MAX, ALPHA_MIN, SleepEmission, WakeEmission
from actisleep.series import State, log_transform
from actisleep.simulate import _sample_states, sample_log_values

from state_letters import from_letters

mp.mp.dps = 50


def _params(a11=0.9, a22=0.9, alpha=0.5, mu1=1.0, sigma1=1.0, mu2=4.0, sigma2=1.0,
            pi0=0.5):
    return HmmParams(
        a=np.array([[a11, 1 - a11], [1 - a22, a22]]),
        sleep=SleepEmission(alpha=alpha, mu1=mu1, sigma1=sigma1),
        wake=WakeEmission(mu2=mu2, sigma2=sigma2),
        pi=np.array([pi0, 1 - pi0]),
    )


def _model_zero_prob(sleep):
    """P(count == 0 | Sleep): the point mass plus the slice of the
    non-negative Gaussian draw that rounds down to count 0 (v < ln 1.5)."""
    alpha = mp.mpf(sleep.alpha)
    mu, sigma = mp.mpf(sleep.mu1), mp.mpf(sleep.sigma1)
    cdf = lambda z: mp.ncdf((z - mu) / sigma)
    tail = 1 - cdf(0)
    slice_mass = (cdf(mp.log(mp.mpf(3) / 2)) - cdf(0)) / tail
    return float(alpha + (1 - alpha) * slice_mass)


def _reference_sample_states(params, t_epochs, rng):
    """The per-epoch numpy loop the plain-float sampler replaced."""
    states = np.empty(t_epochs, dtype=np.int8)
    u = rng.random(t_epochs)
    states[0] = State.WAKE if u[0] >= params.pi[0] else State.SLEEP
    stay0, stay1 = params.a[0, 0], params.a[1, 0]
    for t in range(1, t_epochs):
        p_sleep = stay0 if states[t - 1] == State.SLEEP else stay1
        states[t] = State.SLEEP if u[t] < p_sleep else State.WAKE
    return states


def _reference_draw_nonnegative_normal(mu, sigma, rng):
    while True:
        v = rng.normal(mu, sigma)
        if v >= 0.0:
            return float(v)


def _reference_sample_log_values(states, params, rng):
    values = np.empty(states.size, dtype=np.float64)
    sleep, wake = params.sleep, params.wake
    for t, s in enumerate(states):
        if s == State.SLEEP:
            if rng.random() < sleep.alpha:
                values[t] = 0.0
            else:
                values[t] = _reference_draw_nonnegative_normal(sleep.mu1, sleep.sigma1, rng)
        else:
            values[t] = _reference_draw_nonnegative_normal(wake.mu2, wake.sigma2, rng)
    return values


class TestStreamIdentity:
    """The sampler consumes the generator exactly as the reference loops do."""

    PARAMS = {
        "reference": reference_params(),
        "heavy_rejection": _params(mu1=-1.5, mu2=-0.5, sigma1=0.7, sigma2=0.6),
        "alpha_low_clamp": _params(alpha=ALPHA_MIN),
        "alpha_high_clamp": _params(alpha=ALPHA_MAX),
        "sleep_less_sticky": _params(a11=0.2, a22=0.1),
        "pi_sleep": _params(pi0=1.0),
        "pi_wake": _params(pi0=0.0),
        # the traceback's constant and swap step maps
        "identity_chain": _params(a11=1.0, a22=1.0),
        "always_flip": _params(a11=0.0, a22=0.0),
        "equal_rows": _params(a11=0.3, a22=0.7),
    }

    @staticmethod
    def _sample(sample_states, sample_values, params, t_epochs, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        states = sample_states(params, t_epochs, rng)
        values = sample_values(states, params, rng)
        return states, values, rng.random()

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("t_epochs", [1, 2, 3000])
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_bitwise_equal_to_reference(self, name, t_epochs, seed):
        params = self.PARAMS[name]
        got = self._sample(_sample_states, sample_log_values, params, t_epochs, seed)
        want = self._sample(
            _reference_sample_states, _reference_sample_log_values, params, t_epochs, seed
        )
        assert got[0].dtype == want[0].dtype == np.int8
        assert np.array_equal(got[0], want[0])
        assert got[1].dtype == want[1].dtype
        assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
        assert got[2] == want[2]  # the generator is left in the same state

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_draws_equal_to_a_probability_match_reference(self, name):
        # a real generator ties a[s, 0] or pi[0] with probability ~0; a draw
        # equal to one sends the chain to Wake in both samplers
        p = self.PARAMS[name]
        u = np.random.Generator(np.random.PCG64(4)).choice([p.pi[0], p.a[0, 0], p.a[1, 0]], 60)
        u[0] = p.pi[0]

        class TiedDraws:
            def random(self, n):
                return u[:n].copy()

        for t_epochs in (1, 2, 60):
            got = _sample_states(p, t_epochs, TiedDraws())
            assert np.array_equal(got, _reference_sample_states(p, t_epochs, TiedDraws()))

    def test_cases_reach_the_branches(self):
        # heavy rejection redraws most Gaussians; with a[0,0] < a[1,0]
        # sleep follows wake more often than sleep; pinned starts fix state 0
        rng = np.random.Generator(np.random.PCG64(0))
        normals = []

        class CountingRng:
            random = rng.random

            def normal(self, mu, sigma):
                normals.append(mu)
                return rng.normal(mu, sigma)

        p = self.PARAMS["heavy_rejection"]
        values = sample_log_values(np.ones(2000, dtype=np.int8), p, CountingRng())
        assert np.all(values >= 0)
        assert len(normals) > 3 * 2000
        states = _sample_states(self.PARAMS["sleep_less_sticky"], 3000, np.random.Generator(np.random.PCG64(1)))
        after_sleep = states[1:][states[:-1] == State.SLEEP]
        after_wake = states[1:][states[:-1] == State.WAKE]
        assert np.mean(after_sleep == State.SLEEP) < 0.3 < 0.8 < np.mean(after_wake == State.SLEEP)
        for name, first in (("pi_sleep", State.SLEEP), ("pi_wake", State.WAKE)):
            for seed in range(20):
                rng = np.random.Generator(np.random.PCG64(seed))
                assert _sample_states(self.PARAMS[name], 1, rng)[0] == first

    def test_simulate_from_states_matches_reference(self):
        states = from_letters("S" * 40 + "W" * 25 + "S" * 35, 30)
        params = self.PARAMS["heavy_rejection"]
        series = simulate_from_states(states, params, seed=3)
        rng = np.random.Generator(np.random.PCG64(3))
        values = _reference_sample_log_values(states.states, params, rng)
        expected = np.maximum(np.round(np.expm1(values)), 0.0).astype(np.int64)
        assert np.array_equal(series.counts, expected)


class TestRefusals:
    """Parameters the sampler cannot serve are refused with InputError, with no warning."""

    @pytest.mark.parametrize(
        "state, changes",
        [("sleep", {"mu1": -10.0, "sigma1": 1.0}), ("wake", {"mu2": -10.0, "sigma2": 1.0}),
         ("wake", {"mu2": -3.1, "sigma2": 1.0})],
    )
    def test_rarely_non_negative_gaussian_refused_before_drawing(self, state, changes):
        # P(v >= 0) = Phi(mu / sigma) is 1e-23 at mu/sigma = -10 and 9.7e-4 at
        # -3.1: over 1,000 expected draws per value
        params = _params(**changes)
        with pytest.raises(InputError, match=f"the {state} Gaussian"):
            simulate(SimSpec(params, 10))
        with pytest.raises(InputError, match=f"the {state} Gaussian"):
            simulate_from_states(from_letters("SW" * 5, 30), params)

    def test_gaussian_just_above_the_limit_accepted(self):
        # Phi(-3.0) = 1.3e-3: about 740 draws per value
        series, _ = simulate(SimSpec(_params(mu2=-3.0, sigma2=1.0), 5, seed=1))
        assert np.all(series.counts >= 0)

    @pytest.mark.parametrize("mu2", [42.0, 50.0, 1000.0])
    def test_count_above_int64_refused(self, mu2):
        # e**43.67 is 2**63; at mu2 = 1000 expm1 overflows to inf
        params = _params(mu2=mu2, sigma2=1.0)
        states = from_letters("W" * 2000, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"count is above 2\*\*63 - 1"):
                simulate(SimSpec(params, 2000, seed=2))
            with pytest.raises(InputError, match=r"count is above 2\*\*63 - 1"):
                simulate_from_states(states, params, seed=2)


class TestDeterminism:
    def test_identical_specs_bit_identical(self):
        spec = SimSpec(reference_params(), 2000, seed=7)
        s1, p1 = simulate(spec)
        s2, p2 = simulate(spec)
        assert np.array_equal(s1.counts, s2.counts)
        assert np.array_equal(p1.states, p2.states)
        assert s1.start_time == s2.start_time

    def test_seed_changes_output(self):
        a, _ = simulate(SimSpec(reference_params(), 2000, seed=1))
        b, _ = simulate(SimSpec(reference_params(), 2000, seed=2))
        assert not np.array_equal(a.counts, b.counts)

    def test_from_states_deterministic(self):
        states = from_letters("S" * 50 + "W" * 50, 30)
        a = simulate_from_states(states, reference_params(), seed=3)
        b = simulate_from_states(states, reference_params(), seed=3)
        assert np.array_equal(a.counts, b.counts)


class TestDegenerateSpecs:
    def test_alpha_near_one_sleep_always_zero(self):
        p = _params(alpha=1 - 1e-12)
        series, states = simulate(SimSpec(p, 5000, seed=4))
        sleep_counts = series.counts[states.states == State.SLEEP]
        assert sleep_counts.size > 0
        assert np.all(sleep_counts == 0)

    def test_identity_chain_pinned_start(self):
        p = HmmParams(
            a=np.eye(2),
            sleep=SleepEmission(0.5, 1.0, 1.0),
            wake=WakeEmission(4.0, 1.0),
            pi=np.array([1.0, 0.0]),
        )
        _, states = simulate(SimSpec(p, 300, seed=5))
        assert np.all(states.states == State.SLEEP)

    def test_t_epochs_must_be_positive(self):
        with pytest.raises(InputError):
            SimSpec(reference_params(), 0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InputError, match="seed"):
            SimSpec(reference_params(), 10, seed=-1)

    def test_from_states_seed_must_be_non_negative(self):
        states = from_letters("SW", 30)
        with pytest.raises(InputError, match="seed"):
            simulate_from_states(states, reference_params(), seed=-1)


class TestLargeSampleFrequencies:
    def test_transition_and_zero_frequencies(self):
        params = reference_params()
        series, states = simulate(SimSpec(params, 50_000, seed=6))
        s = states.states
        # empirical transition frequencies within 0.01 of a
        for i in (0, 1):
            from_i = s[:-1] == i
            n_from = int(np.sum(from_i))
            emp = np.sum(from_i & (s[1:] == 0)) / n_from
            assert emp == pytest.approx(params.a[i, 0], abs=0.01)
        # zero fraction among sleep epochs within 0.02 of the model's
        # total zero probability (point mass + rounding slice)
        sleep_counts = series.counts[s == State.SLEEP]
        emp_zero = np.mean(sleep_counts == 0)
        assert emp_zero == pytest.approx(_model_zero_prob(params.sleep), abs=0.02)

    def test_stationary_marginals(self):
        params = reference_params()
        _, states = simulate(SimSpec(params, 50_000, seed=8))
        # stationary distribution of the chain
        a = params.a
        pi0 = a[1, 0] / (a[0, 1] + a[1, 0])
        emp = np.mean(states.states == State.SLEEP)
        assert emp == pytest.approx(pi0, abs=0.01)


class TestCountLogConsistency:
    def test_rounding_bound(self):
        # log_transform of the emitted counts can differ from a possible
        # generating log-value only by the half-count rounding window
        series, _ = simulate(SimSpec(reference_params(), 5000, seed=9))
        logs = log_transform(series).values
        c = series.counts.astype(np.float64)
        lo = np.where(c > 0, np.log(c + 0.5), 0.0)
        hi = np.log(c + 1.5)
        # each emitted count's log value sits inside its rounding cell
        assert np.all(logs >= lo - 1e-12)
        assert np.all(logs <= hi + 1e-12)

    def test_counts_non_negative_integers(self):
        series, _ = simulate(SimSpec(reference_params(), 5000, seed=10))
        assert series.counts.dtype == np.int64
        assert np.all(series.counts >= 0)

    def test_wake_counts_generally_large(self):
        series, states = simulate(SimSpec(reference_params(), 20_000, seed=11))
        wake_counts = series.counts[states.states == State.WAKE]
        sleep_counts = series.counts[states.states == State.SLEEP]
        assert np.median(wake_counts) > np.median(sleep_counts)
