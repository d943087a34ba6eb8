"""Emission-law tests: log-likelihood values, normalization, weighted MLE fits."""

import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar, root
from scipy.special import log_ndtr as scipy_log_ndtr

from actisleep.emissions import (
    MU1_BOUNDS,
    SIGMA1_BOUNDS,
    SIGMA_FLOOR,
    SleepEmission,
    WakeEmission,
    _fit_truncnorm_weighted,
    _trunc_loglik,
    _trunc_stats,
    fit_sleep_weighted,
    fit_wake_weighted,
    log_ndtr,
    sleep_log_emission,
    wake_log_emission,
)
from actisleep.errors import DegenerateWeightError, InputError

mpmath.mp.dps = 50

TABLE_SLEEP = SleepEmission(alpha=0.731, mu1=2.486, sigma1=1.248)
TABLE_WAKE = WakeEmission(mu2=4.803, sigma2=0.866)


def _mp_sleep_log_emission(obs, alpha, mu1, sigma1):
    """Independent high-precision evaluation of the sleep emission.

    An exact zero belongs to the point mass alone; a positive value to the
    truncated Gaussian, weighted by 1 - alpha.
    """
    obs, alpha, mu1, sigma1 = map(mpmath.mpf, (obs, alpha, mu1, sigma1))
    if obs == 0:
        return float(mpmath.log(alpha))
    z = (obs - mu1) / sigma1
    phi = mpmath.exp(-z * z / 2) / mpmath.sqrt(2 * mpmath.pi)
    trunc_mass = 1 - mpmath.ncdf(-mu1 / sigma1)
    return float(mpmath.log((1 - alpha) * phi / (sigma1 * trunc_mass)))



def _mp_wake_log_emission(obs, mu2, sigma2):
    obs, mu2, sigma2 = map(mpmath.mpf, (obs, mu2, sigma2))
    z = (obs - mu2) / sigma2
    return float(-mpmath.log(sigma2) - mpmath.log(2 * mpmath.pi) / 2 - z * z / 2)


def _mp_log_ndtr(x):
    with mpmath.workdps(400):
        return mpmath.log(mpmath.ncdf(mpmath.mpf(float(x))))


class TestLogNdtr:
    """The stdlib normal log-CDF against mpmath at 400 digits."""

    @pytest.mark.parametrize(
        "grid",
        [
            -np.logspace(-12, 6, 400),
            np.linspace(-40.0, 37.5, 400),
            # each branch point and the neighbouring doubles on both sides
            [np.nextafter(b, d) for b in (0.0, -20.0) for d in (-np.inf, 0.0, np.inf)]
            + [0.0, -20.0],
        ],
        ids=["log-spaced", "linear", "branch-points"],
    )
    def test_relative_error(self, grid):
        for x in grid:
            exact = _mp_log_ndtr(x)
            if abs(exact) < sys.float_info.min:
                continue  # the true value underflows a double
            rel = abs((log_ndtr(float(x)) - exact) / exact)
            assert rel <= 1e-12, (float(x), float(rel))

    @pytest.mark.parametrize("x", [38.5, 39.0, 40.0, 1e3, 1e300, np.inf])
    def test_zero_far_in_upper_tail(self, x):
        assert log_ndtr(x) == 0.0

    @pytest.mark.parametrize("x", [38.0, 38.25])
    def test_subnormal_upper_tail(self, x):
        # log Phi(38) is -2.9e-316: returned as that subnormal, so it is zero
        # to within the smallest normal double
        assert -sys.float_info.min < log_ndtr(x) <= 0.0

    def test_finite_and_monotone_into_lower_tail(self):
        xs = -np.logspace(-12, 6, 2000)
        vals = np.array([log_ndtr(float(x)) for x in xs])
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) <= 0.0)


class TestSleepLogEmission:
    def test_point_mass_dominates(self):
        p = SleepEmission(alpha=1 - 1e-12, mu1=2.0, sigma1=1.0)
        assert sleep_log_emission(0.0, p) == pytest.approx(0.0, abs=1e-10)

    def test_zero_obs_half_alpha_standard_normal(self):
        # a zero scores the point mass alone: log(0.5)
        p = SleepEmission(alpha=0.5, mu1=0.0, sigma1=1.0)
        expected = _mp_sleep_log_emission(0, 0.5, 0, 1)
        assert expected == pytest.approx(-0.6931471805599453, abs=1e-14)
        assert sleep_log_emission(0.0, p) == pytest.approx(expected, abs=1e-12)

    def test_table_parameters_at_mode(self):
        expected = _mp_sleep_log_emission(2.486, 0.731, 2.486, 1.248)
        assert sleep_log_emission(2.486, TABLE_SLEEP) == pytest.approx(
            expected, abs=1e-12
        )

    def test_random_values_match_oracle(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(50):
            p = SleepEmission(
                alpha=rng.uniform(0.05, 0.95),
                mu1=rng.uniform(-2, 4),
                sigma1=rng.uniform(0.2, 3),
            )
            obs = 0.0 if rng.random() < 0.3 else rng.uniform(0, 8)
            expected = _mp_sleep_log_emission(obs, p.alpha, p.mu1, p.sigma1)
            assert sleep_log_emission(obs, p) == pytest.approx(expected, abs=1e-11)

    def test_non_finite_obs_rejected(self):
        with pytest.raises(InputError):
            sleep_log_emission(np.nan, TABLE_SLEEP)

    def test_negative_obs_rejected(self):
        with pytest.raises(InputError):
            sleep_log_emission(-0.5, TABLE_SLEEP)

    def test_vectorized_matches_scalar(self):
        obs = np.array([0.0, 0.7, 2.486, 5.0])
        vec = sleep_log_emission(obs, TABLE_SLEEP)
        assert vec.shape == obs.shape
        for i, o in enumerate(obs):
            assert vec[i] == sleep_log_emission(float(o), TABLE_SLEEP)


class TestWakeLogEmission:
    def test_at_mean_unit_sigma(self):
        p = WakeEmission(mu2=3.0, sigma2=1.0)
        assert wake_log_emission(3.0, p) == pytest.approx(
            -0.9189385332046727, abs=1e-14
        )

    def test_table_parameters(self):
        expected = _mp_wake_log_emission(4.803, 4.803, 0.866)
        assert wake_log_emission(4.803, TABLE_WAKE) == pytest.approx(
            expected, abs=1e-13
        )
        # -log(0.866) - log(sqrt(2*pi))
        assert expected == pytest.approx(-0.7750681627849708, abs=1e-12)

    def test_symmetry(self):
        p = WakeEmission(mu2=4.803, sigma2=0.866)
        for c in (0.1, 1.0, 2.5):
            assert wake_log_emission(p.mu2 + c, p) == wake_log_emission(p.mu2 - c, p)

    @pytest.mark.parametrize("obs", [np.nan, np.inf, [1.0, -np.inf]])
    def test_non_finite_obs_rejected(self, obs):
        with pytest.raises(InputError, match="observations must be finite"):
            wake_log_emission(obs, TABLE_WAKE)


class TestNormalization:
    @pytest.mark.parametrize(
        "p",
        [
            TABLE_SLEEP,
            SleepEmission(alpha=0.1, mu1=-1.0, sigma1=0.5),
            SleepEmission(alpha=0.9, mu1=5.0, sigma1=2.0),
            SleepEmission(alpha=0.5, mu1=0.0, sigma1=1.0),
        ],
    )
    def test_sleep_mass_plus_integral_is_one(self, p):
        density = lambda v: (1 - p.alpha) * np.exp(
            sleep_log_emission(v, p) - np.log1p(-p.alpha)
        )
        # continuous part only; at v > 0 sleep_log_emission is the full log density
        cont = lambda v: np.exp(sleep_log_emission(float(v), p))
        integral, err = quad(cont, 1e-12, 20.0, limit=200)
        assert p.alpha + integral == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "p",
        [TABLE_WAKE, WakeEmission(mu2=0.0, sigma2=0.3), WakeEmission(mu2=10.0, sigma2=2.0)],
    )
    def test_wake_integrates_to_one(self, p):
        density = lambda v: np.exp(wake_log_emission(float(v), p))
        integral, err = quad(
            density, p.mu2 - 10 * p.sigma2, p.mu2 + 10 * p.sigma2, limit=200
        )
        assert integral == pytest.approx(1.0, abs=1e-8)


class TestFitWakeWeighted:
    def test_two_point(self):
        p = fit_wake_weighted([1.0, 3.0], [1.0, 1.0])
        assert p.mu2 == 2.0
        assert p.sigma2 == 1.0

    def test_zero_weight_excluded(self):
        p = fit_wake_weighted([1.0, 3.0], [1.0, 0.0])
        assert p.mu2 == 1.0
        assert p.sigma2 == SIGMA_FLOOR

    def test_recovery_from_samples(self):
        rng = np.random.Generator(np.random.PCG64(2))
        obs = rng.normal(4.803, 0.866, size=10000)
        p = fit_wake_weighted(obs, np.ones(obs.size))
        assert p.mu2 == pytest.approx(4.803, abs=0.03)
        assert p.sigma2 == pytest.approx(0.866, abs=0.03)

    def test_binary_weights_equal_subsample_mle(self):
        rng = np.random.Generator(np.random.PCG64(3))
        obs = rng.normal(2.0, 1.0, size=200)
        w = (rng.random(200) < 0.5).astype(float)
        sub = obs[w == 1.0]
        p = fit_wake_weighted(obs, w)
        assert p.mu2 == pytest.approx(sub.mean(), abs=1e-12)
        assert p.sigma2 == pytest.approx(np.sqrt(np.mean((sub - sub.mean()) ** 2)), abs=1e-12)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DegenerateWeightError):
            fit_wake_weighted([1.0, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize(
        "obs, weights", [([1.0, 2.0], [1.0]), ([[1.0, 2.0]], [[1.0, 1.0]]), (1.0, 1.0)]
    )
    def test_weights_not_matching_obs_rejected(self, obs, weights):
        message = "obs and weights must be 1-d sequences of equal length"
        with pytest.raises(InputError, match=message):
            fit_wake_weighted(obs, weights)
        with pytest.raises(InputError, match=message):
            fit_sleep_weighted(obs, weights, TABLE_SLEEP)


class TestTruncnormDerivatives:
    def test_clean_truncated_normal_fit(self):
        rng = np.random.Generator(np.random.PCG64(5))
        draws = rng.normal(2.486, 1.248, size=40000)
        o = draws[draws >= 0][:20000]
        mu, sigma = _fit_truncnorm_weighted(o, np.ones(o.size), 1.0, 1.0)
        assert mu == pytest.approx(2.486, abs=0.05)
        assert sigma == pytest.approx(1.248, abs=0.05)


def _sample_sleep(rng, p, n):
    """Draw n values from a SleepEmission (continuous sampler oracle)."""
    vals = np.zeros(n)
    mask = rng.random(n) >= p.alpha
    k = int(mask.sum())
    draws = []
    while len(draws) < k:
        d = rng.normal(p.mu1, p.sigma1, size=max(k, 16))
        draws.extend(d[d >= 0].tolist())
    vals[mask] = draws[:k]
    return vals


class TestFitSleepWeighted:
    def test_all_zero_obs_alpha_saturates(self):
        obs = np.zeros(100)
        w = np.ones(100)
        fitted = fit_sleep_weighted(obs, w, SleepEmission(0.5, 1.0, 1.0))
        assert fitted.alpha == 1 - 1e-6  # ALPHA_MAX, written out so its value is pinned

    def test_recovery_from_continuous_samples(self):
        rng = np.random.Generator(np.random.PCG64(6))
        obs = _sample_sleep(rng, TABLE_SLEEP, 10000)
        fitted = fit_sleep_weighted(obs, np.ones(obs.size), SleepEmission(0.5, 1.0, 1.0))
        assert fitted.alpha == pytest.approx(0.731, abs=0.03)
        assert fitted.mu1 == pytest.approx(2.486, abs=0.05)
        assert fitted.sigma1 == pytest.approx(1.248, abs=0.05)

    def test_repeated_single_value_hits_sigma_floor(self):
        obs = np.full(50, 2.0)
        fitted = fit_sleep_weighted(obs, np.ones(50), SleepEmission(0.5, 1.0, 1.0))
        assert fitted.sigma1 == SIGMA_FLOOR

    def test_ascent_over_init(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            p = SleepEmission(
                alpha=rng.uniform(0.1, 0.9),
                mu1=rng.uniform(0.5, 4),
                sigma1=rng.uniform(0.3, 2),
            )
            obs = _sample_sleep(rng, p, 400)
            w = rng.uniform(0.0, 1.0, size=400)
            init = SleepEmission(0.5, 1.0, 1.0)
            fitted = fit_sleep_weighted(obs, w, init)
            assert np.dot(w, sleep_log_emission(obs, fitted)) >= np.dot(
                w, sleep_log_emission(obs, init)
            ) - 1e-9

    def test_objective_splits_into_point_mass_and_truncated_parts(self):
        rng = np.random.Generator(np.random.PCG64(8))
        obs = _sample_sleep(rng, TABLE_SLEEP, 300)
        w = rng.uniform(0.0, 1.0, size=300)
        zero = obs == 0.0
        assert 0 < zero.sum() < obs.size
        for p in (TABLE_SLEEP, SleepEmission(0.2, -1.0, 2.5), SleepEmission(0.9, 4.0, 0.4)):
            expected = (
                w[zero].sum() * np.log(p.alpha)
                + w[~zero].sum() * np.log1p(-p.alpha)
                + _trunc_loglik(p.mu1, p.sigma1, _trunc_stats(obs, np.where(zero, 0.0, w)))
            )
            got = np.dot(w, sleep_log_emission(obs, p))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_m_step_maximizes_the_emission_objective(self):
        # alpha is exact and (mu1, sigma1) sit at a stationary point, so
        # nudging any parameter lowers the weighted emission log-likelihood
        rng = np.random.Generator(np.random.PCG64(9))
        obs = _sample_sleep(rng, TABLE_SLEEP, 400)
        w = rng.uniform(0.0, 1.0, size=400)
        fitted = fit_sleep_weighted(obs, w, SleepEmission(0.5, 1.0, 1.0))
        best = np.dot(w, sleep_log_emission(obs, fitted))
        for field in ("alpha", "mu1", "sigma1"):
            for h in (-1e-3, 1e-3):
                kwargs = {
                    "alpha": fitted.alpha, "mu1": fitted.mu1, "sigma1": fitted.sigma1
                }
                kwargs[field] += h
                assert np.dot(w, sleep_log_emission(obs, SleepEmission(**kwargs))) < best

    def test_never_scores_below_an_out_of_box_start(self):
        # positives far above MU1_BOUNDS: every point inside the box
        # scores below the start, so the fit may not return one of them
        rng = np.random.Generator(np.random.PCG64(10))
        obs = 14.0 + np.abs(rng.normal(0.0, 1.0, size=200))
        w = np.ones(200)
        mu, sigma = _fit_truncnorm_weighted(obs, w, 14.2, 1.0)
        stats = _trunc_stats(obs, w)
        assert _trunc_loglik(mu, sigma, stats) >= _trunc_loglik(14.2, 1.0, stats)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DegenerateWeightError):
            fit_sleep_weighted(np.array([0.0, 1.0]), np.array([0.0, 0.0]), TABLE_SLEEP)

    def test_weights_outside_unit_interval_rejected(self):
        with pytest.raises(InputError):
            fit_sleep_weighted(np.array([0.0, 1.0]), np.array([0.5, 1.5]), TABLE_SLEEP)


def _box_objective(obs, w, mu, sigma):
    """Weighted truncated-normal log-likelihood of the positive values,
    broadcast over ``mu`` and ``sigma``, normalised by scipy's log_ndtr."""
    pos = obs > 0
    o, wt = obs[pos], w[pos]
    wsum = wt.sum()
    mean = wt @ o / wsum
    ss = wt @ (o - mean) ** 2
    return -(ss + wsum * (mean - mu) ** 2) / (2 * sigma**2) - wsum * (
        np.log(sigma) + 0.5 * np.log(2 * np.pi) + scipy_log_ndtr(mu / sigma)
    )


def _weighted_positive_datasets(rng, n):
    """Normal, exponential-like, rounded-count and high-mean positives with
    uniform weights and a random start inside the parameter box."""
    for i in range(n):
        size = int(rng.integers(20, 300))
        kind = i % 4
        if kind == 0:
            o = np.abs(rng.normal(rng.uniform(-2, 6), rng.uniform(0.05, 3), size))
        elif kind == 1:
            o = rng.exponential(rng.uniform(0.05, 3), size)
        elif kind == 2:
            v = np.abs(rng.normal(rng.uniform(-1, 3), rng.uniform(0.2, 2), size))
            o = np.log1p(np.round(np.expm1(v)))
        else:
            o = np.abs(rng.normal(rng.uniform(7, 14), rng.uniform(0.05, 2), size))
        o[0] = max(o[0], np.log(2.0))  # at least one positive value
        start = SleepEmission(
            0.5,
            rng.uniform(*MU1_BOUNDS),
            float(np.exp(rng.uniform(*np.log(SIGMA1_BOUNDS)))),
        )
        yield o, rng.uniform(0.0, 1.0, size), start


class TestExactBoxMaximum:
    # a 151 x 31 grid over the box; the fit may not score below any point of it
    MU_GRID = np.linspace(*MU1_BOUNDS, 151)[:, None]
    SIGMA_GRID = np.geomspace(*SIGMA1_BOUNDS, 31)[None, :]

    def _assert_dominates_grid(self, obs, w, start):
        fitted = fit_sleep_weighted(obs, w, start)
        grid_max = _box_objective(obs, w, self.MU_GRID, self.SIGMA_GRID).max()
        assert _box_objective(obs, w, fitted.mu1, fitted.sigma1) >= grid_max - 1e-6
        return fitted

    def test_random_weighted_datasets_from_random_starts(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for obs, w, start in _weighted_positive_datasets(rng, 120):
            self._assert_dominates_grid(obs, w, start)

    def test_single_repeated_value_inside_the_box(self):
        fitted = self._assert_dominates_grid(
            np.full(40, 2.0), np.ones(40), SleepEmission(0.5, 1.0, 1.0)
        )
        assert fitted.sigma1 == SIGMA_FLOOR
        assert fitted.mu1 == pytest.approx(2.0, abs=1e-9)

    def test_single_repeated_value_above_the_box(self):
        # above MU1_BOUNDS[1] the upper mu1 bound rises to the value itself,
        # so the fit sits on it with sigma1 at the floor (an absolute bound
        # of 10 gave mu1 = 10 and sigma1 = 12 - 10)
        fitted = self._assert_dominates_grid(
            np.full(40, 12.0), np.ones(40), SleepEmission(0.5, 1.0, 1.0)
        )
        assert fitted.mu1 == 12.0
        assert fitted.sigma1 == SIGMA_FLOOR

    # (draws, mu1 bound or None, sigma1 bound or None) at the box maximum
    BOUND_CASES = {
        "mu1-lower": (lambda rng: rng.gamma(0.7, 0.5, 2000), MU1_BOUNDS[0], None),
        "sigma1-upper": (lambda rng: np.abs(rng.normal(3.0, 8.0, 2000)), None, SIGMA1_BOUNDS[1]),
        "lower-corner": (lambda rng: rng.lognormal(0.0, 1.3, 2000), MU1_BOUNDS[0], SIGMA1_BOUNDS[1]),
        # the upper mu1 bound is reached only by weight on one value at the bound
        "upper-corner": (lambda rng: np.full(2000, MU1_BOUNDS[1]), MU1_BOUNDS[1], SIGMA1_BOUNDS[0]),
    }

    @pytest.mark.parametrize("case", list(BOUND_CASES))
    def test_maximum_on_a_bound_or_corner_is_the_bound_value(self, case):
        draw, mu_bound, sigma_bound = self.BOUND_CASES[case]
        obs = draw(np.random.Generator(np.random.PCG64(12)))
        fitted = self._assert_dominates_grid(obs, np.ones(obs.size), SleepEmission(0.5, 1.0, 1.0))
        if mu_bound is not None:
            assert fitted.mu1 == mu_bound
        if sigma_bound is not None:
            assert fitted.sigma1 == sigma_bound

    def test_upper_mu1_bound_is_never_active_on_spread_data(self):
        # d/dmu of the objective is negative for mu >= the weighted mean, and
        # the upper bound is at least the largest value, so mu1 lands below
        # the mean (to rounding, where the truncation mass is 1 in float64);
        # exponential(20) draws gave mu1 = 10 under an absolute bound
        rng = np.random.Generator(np.random.PCG64(15))
        datasets = [(rng.exponential(20.0, 2000), np.ones(2000), SleepEmission(0.5, 1.0, 1.0))]
        for obs, w, start in [*datasets, *_weighted_positive_datasets(rng, 40)]:
            fitted = self._assert_dominates_grid(obs, w, start)
            positive = obs > 0
            assert fitted.mu1 < np.dot(w[positive], obs[positive]) / w[positive].sum() + 1e-9

    def test_same_result_from_every_start(self):
        rng = np.random.Generator(np.random.PCG64(13))
        obs = _sample_sleep(rng, TABLE_SLEEP, 400)
        w = rng.uniform(0.0, 1.0, size=400)
        fits = set()
        for mu0 in np.linspace(*MU1_BOUNDS, 6):
            for sigma0 in np.geomspace(*SIGMA1_BOUNDS, 4):
                fitted = fit_sleep_weighted(obs, w, SleepEmission(0.5, mu0, sigma0))
                fits.add((fitted.mu1, fitted.sigma1))
        assert len(fits) == 1


def _bounded_max(f, lo, hi):
    """``(x, f(x))`` at the maximum of a unimodal ``f`` on ``[lo, hi]``:
    scipy's bounded scalar search, with both ends scored."""
    found = minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}
    )
    return max((found.x, -found.fun), (lo, f(lo)), (hi, f(hi)), key=lambda p: p[1])


def _nested_box_search(stats):
    """Reference box maximum: a bounded search over mu nested inside one over
    sigma.  At fixed sigma the objective is concave in mu, and its maximum
    over mu is unimodal in sigma (concavity in the natural parameters)."""

    def best_mu(sigma):
        return _bounded_max(lambda mu: _trunc_loglik(mu, sigma, stats), *MU1_BOUNDS)

    sigma, _ = _bounded_max(lambda sg: best_mu(sg)[1], *SIGMA1_BOUNDS)
    return best_mu(sigma)[0], sigma


def test_box_maximum_matches_nested_reference_search():
    rng = np.random.Generator(np.random.PCG64(14))
    for obs, w, start in _weighted_positive_datasets(rng, 60):
        stats = _trunc_stats(obs, w)
        mu, sigma = _fit_truncnorm_weighted(obs, w, start.mu1, start.sigma1)
        reference = _trunc_loglik(*_nested_box_search(stats), stats)
        assert _trunc_loglik(mu, sigma, stats) >= reference - 1e-9


def _score_equations(stats):
    """The truncated-normal score equations in (mu, sigma), with
    lambda = phi / Phi at s = mu / sigma from scipy's log_ndtr."""
    _, mean, var = stats

    def scores(x):
        mu, sigma = x
        s = mu / sigma
        lam = np.exp(-0.5 * s * s - 0.5 * np.log(2 * np.pi) - scipy_log_ndtr(s))
        return [(mean - mu) / sigma - lam, (var + (mean - mu) ** 2) / sigma**2 - 1 + s * lam]

    return scores


def test_interior_maximum_solves_the_score_equations():
    # the root of the score equations, solved by scipy from a start nudged
    # off the M-step's result, is where the M-step must land to rounding;
    # mu is compared on the scale of sigma too, since near mu = 0 either
    # side's rounding in s = mu / sigma is a large share of mu itself
    rng = np.random.Generator(np.random.PCG64(16))
    interior = 0
    for obs, w, start in _weighted_positive_datasets(rng, 300):
        stats = _trunc_stats(obs, w)
        mu, sigma = _fit_truncnorm_weighted(obs, w, start.mu1, start.sigma1)
        if mu in (MU1_BOUNDS[0], max(MU1_BOUNDS[1], obs.max())) or sigma in SIGMA1_BOUNDS:
            continue
        solved = root(_score_equations(stats), [mu * (1 + 1e-6), sigma * (1 + 1e-6)], tol=1e-15)
        assert np.abs(solved.fun).max() < 1e-14, solved.message
        ref_mu, ref_sigma = solved.x
        assert abs(mu - ref_mu) <= 1e-11 * max(abs(ref_mu), ref_sigma)
        assert sigma == pytest.approx(ref_sigma, rel=1e-11, abs=0)
        interior += 1
    assert interior > 200


class TestParameterValidation:
    def test_alpha_bounds(self):
        with pytest.raises(InputError):
            SleepEmission(alpha=0.0, mu1=1.0, sigma1=1.0)
        with pytest.raises(InputError):
            SleepEmission(alpha=1.0, mu1=1.0, sigma1=1.0)

    def test_sigma_floor(self):
        with pytest.raises(InputError):
            SleepEmission(alpha=0.5, mu1=1.0, sigma1=1e-4)
        with pytest.raises(InputError):
            WakeEmission(mu2=1.0, sigma2=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("mu1", np.nan), ("mu1", np.inf), ("mu1", -np.inf), ("sigma1", np.inf)],
    )
    def test_sleep_non_finite_rejected(self, field, value):
        kwargs = {"alpha": 0.5, "mu1": 1.0, "sigma1": 1.0, field: value}
        with pytest.raises(InputError, match=field):
            SleepEmission(**kwargs)

    @pytest.mark.parametrize(
        "field, value", [("mu2", np.nan), ("mu2", -np.inf), ("sigma2", np.inf)]
    )
    def test_wake_non_finite_rejected(self, field, value):
        kwargs = {"mu2": 3.0, "sigma2": 1.0, field: value}
        with pytest.raises(InputError, match=field):
            WakeEmission(**kwargs)

    def test_nan_alpha_and_sigmas_rejected(self):
        with pytest.raises(InputError, match="alpha"):
            SleepEmission(alpha=np.nan, mu1=1.0, sigma1=1.0)
        with pytest.raises(InputError, match="sigma1"):
            SleepEmission(alpha=0.5, mu1=1.0, sigma1=np.nan)
        with pytest.raises(InputError, match="sigma2"):
            WakeEmission(mu2=3.0, sigma2=np.nan)
