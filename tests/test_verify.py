"""Self-verification tests: the clean implementation passes, faults are caught."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.special import logsumexp

from actisleep import hmm
from actisleep.errors import InputError
from actisleep.series import StateSequence
from actisleep.verify import BRUTE_FORCE_MAX_T, _logsumexp, run_verification


class TestLogSumExp:
    @pytest.mark.parametrize(
        "logp",
        [
            [0.0],
            [-1.0, -2.0, -3.0],
            [-1e4, -1e4 - 1e-9, -2e4],  # far below exp's range: the shift keeps it
            [700.0, 710.0, 720.0],  # above it
            [-np.inf, -5.0],
        ],
    )
    def test_matches_scipy(self, logp):
        logp = np.asarray(logp)
        assert _logsumexp(logp) == pytest.approx(float(logsumexp(logp)), rel=1e-15, abs=0)

    def test_random_path_scores(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logp = rng.normal(-200.0, 30.0, size=int(rng.integers(1, 2**12)))
            assert _logsumexp(logp) == pytest.approx(float(logsumexp(logp)), rel=1e-14)


class TestCleanImplementation:
    def test_all_checks_pass(self):
        report = run_verification(trials=200, max_t=12, seed=0)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_no_instances_pass_with_zero_errors(self):
        report = run_verification(trials=0)
        assert report.passed
        assert [c.detail for c in report.checks[:3]] == [
            "worst rel err 0.000e+00",
            "paths identical",
            "worst abs err 0.000e+00",
        ]

    def test_deterministic(self):
        r1 = run_verification(trials=50, max_t=10, seed=5)
        r2 = run_verification(trials=50, max_t=10, seed=5)
        assert [c.detail for c in r1.checks] == [c.detail for c in r2.checks]


class TestArguments:
    """Arguments the run cannot use are refused up front, not partway through."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"trials": -1},
            {"max_t": 0},
            {"trials": 1, "max_t": BRUTE_FORCE_MAX_T + 1},  # one short instance would pass
        ],
        ids=["seed", "trials", "max_t_0", "max_t_above_oracle"],
    )
    def test_refused(self, kwargs, monkeypatch):
        # a run that got past the checks would reach the EM runs
        monkeypatch.setattr(hmm, "baum_welch", mock.Mock(side_effect=AssertionError))
        with pytest.raises(InputError):
            run_verification(**{"trials": 50, **kwargs})


class TestFaultInjection:
    def test_biased_forward_caught(self, monkeypatch):
        real = hmm.forward_log_likelihood
        monkeypatch.setattr(hmm, "forward_log_likelihood", lambda obs, p: real(obs, p) + 1e-6)
        report = run_verification(trials=50)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["forward vs enumeration"].passed
        assert by_name["posteriors vs enumeration"].passed

    def test_flipped_viterbi_caught(self, monkeypatch):
        real = hmm.viterbi

        def bad_viterbi(obs, params):
            path = real(obs, params)
            return StateSequence(1 - path.states, path.epoch_seconds)

        monkeypatch.setattr(hmm, "viterbi", bad_viterbi)
        report = run_verification(trials=50)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["viterbi vs enumeration"].passed

    def test_unnormalized_posteriors_caught(self, monkeypatch):
        real = hmm.posterior_marginals
        monkeypatch.setattr(hmm, "posterior_marginals", lambda obs, p: real(obs, p) * 1.001)
        report = run_verification(trials=50)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["posteriors vs enumeration"].passed

    def test_nan_posteriors_caught(self, monkeypatch):
        real = hmm.posterior_marginals
        monkeypatch.setattr(hmm, "posterior_marginals", lambda obs, p: real(obs, p) * np.nan)
        report = run_verification(trials=20)
        check = {c.name: c for c in report.checks}["posteriors vs enumeration"]
        assert not check.passed
        assert check.detail.startswith("worst abs err nan; first failing instance seed ")

    def test_failure_reports_instance_seed(self, monkeypatch):
        real = hmm.forward_log_likelihood
        monkeypatch.setattr(hmm, "forward_log_likelihood", lambda obs, p: real(obs, p) + 1.0)
        report = run_verification(trials=20)
        detail = {c.name: c.detail for c in report.checks}["forward vs enumeration"]
        assert "instance seed" in detail

    def test_falling_em_trace_caught(self, monkeypatch):
        monkeypatch.setattr(
            hmm, "baum_welch", lambda *a, **k: SimpleNamespace(log_likelihood_trace=[-5.0, -6.0])
        )
        report = run_verification(trials=3, seed=8)
        # the EM seeds are drawn after all the instance seeds
        rng = np.random.Generator(np.random.PCG64(8))
        rng.integers(0, 2**63 - 1, size=3)
        em_seed = int(rng.integers(0, 2**31))
        check = {c.name: c for c in report.checks}["EM log-likelihood ascent"]
        assert not check.passed
        assert check.detail == f"decreasing trace at simulation seed {em_seed}"
