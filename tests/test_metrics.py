"""Agreement-statistics tests with independent high-precision oracles."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from actisleep.errors import InputError, UndefinedStatisticError
from actisleep.metrics import (
    Confusion,
    _t_two_sided_p,
    confusion,
    epoch_metrics,
    paired_t,
    pearson_r,
    sleep_variables,
)
from actisleep.series import StudyWindow

from state_letters import from_letters

mp.mp.dps = 50


def _seq(letters, epoch_seconds=30):
    return from_letters(letters, epoch_seconds)


def _mp_pearson(x, y):
    x = [mp.mpf(v) for v in x]
    y = [mp.mpf(v) for v in y]
    mx = mp.fsum(x) / len(x)
    my = mp.fsum(y) / len(y)
    num = mp.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    den = mp.sqrt(mp.fsum((a - mx) ** 2 for a in x)) * mp.sqrt(
        mp.fsum((b - my) ** 2 for b in y)
    )
    return num / den


def _mp_t_two_sided_p(t, df):
    # two-sided Student-t p via the regularized incomplete beta function
    t = mp.mpf(t)
    df = mp.mpf(df)
    x = df / (df + t * t)
    return mp.betainc(df / 2, mp.mpf(1) / 2, 0, x, regularized=True)


# non-finite values, and finite ones whose differences or deviations overflow
NON_FINITE_PAIRS = [
    ([1.0, float("nan"), 3.0], [0.0, 1.0, 1.0]),
    ([1.0, 2.0, 3.0], [0.0, float("inf"), 1.0]),
    ([float("-inf"), 2.0, 3.0], [0.0, 1.0, 1.0]),
    ([1e308, -1e308, 3.0], [-1e308, 1e308, 1.0]),
]


def _raises_input_error_without_warnings(func, x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            func(x, y)


class TestConfusion:
    def test_golden_counts(self):
        pred = _seq("SSSSSSWSWW")
        truth = _seq("SSSSSSSWWW")
        c = confusion(pred, truth)
        assert (c.tp_sleep, c.fn_sleep, c.fp_sleep, c.tn_sleep) == (6, 1, 1, 2)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            confusion(_seq("SS"), _seq("SSS"))


class TestEpochMetrics:
    def test_golden_rates(self):
        m = epoch_metrics(Confusion(6, 1, 1, 2))
        assert m.accuracy == pytest.approx(0.8, abs=1e-15)
        assert m.sensitivity_sleep == pytest.approx(6 / 7, abs=1e-15)
        assert m.specificity_sleep == pytest.approx(2 / 3, abs=1e-15)
        assert m.ppv_sleep == pytest.approx(6 / 7, abs=1e-15)
        assert m.ppv_wake == pytest.approx(2 / 3, abs=1e-15)

    def test_undefined_rates_are_none(self):
        # no true sleep epochs: sensitivity is 0/0
        m = epoch_metrics(Confusion(0, 0, 3, 7))
        assert m.sensitivity_sleep is None
        assert m.specificity_sleep == pytest.approx(0.7, abs=1e-15)
        # no predicted sleep epochs: PPV for sleep is 0/0
        m = epoch_metrics(Confusion(0, 4, 0, 6))
        assert m.ppv_sleep is None

    def test_empty_table_rejected(self):
        with pytest.raises(InputError):
            epoch_metrics(Confusion(0, 0, 0, 0))

    def test_perfect_agreement(self):
        m = epoch_metrics(Confusion(5, 0, 0, 5))
        assert m.accuracy == 1.0
        assert m.sensitivity_sleep == 1.0
        assert m.specificity_sleep == 1.0


class TestSleepVariables:
    def test_worked_example(self):
        # 30 s epochs, Wake x10 then Sleep x10, window [0, 20)
        v = sleep_variables(_seq("W" * 10 + "S" * 10), StudyWindow(0, 20, 0, 19))
        assert v.total_epochs_min == pytest.approx(10.0)
        assert v.total_sleep_time_min == pytest.approx(5.0)
        assert v.sleep_latency_min == pytest.approx(5.0)
        assert v.waso_min == pytest.approx(0.0)
        assert v.sleep_efficiency_pct == pytest.approx(50.0)

    def test_waso_counts_wake_after_onset(self):
        v = sleep_variables(
            _seq("WWSSWWSS"), StudyWindow(0, 8, 0, 7)
        )
        assert v.sleep_latency_min == pytest.approx(1.0)
        assert v.waso_min == pytest.approx(1.0)
        assert v.total_sleep_time_min == pytest.approx(2.0)

    def test_no_sleep_in_window(self):
        v = sleep_variables(_seq("W" * 12), StudyWindow(0, 12, 0, 11))
        assert v.total_sleep_time_min == 0.0
        assert v.sleep_latency_min == pytest.approx(6.0)
        assert v.waso_min == 0.0
        assert v.sleep_efficiency_pct == 0.0

    def test_window_restricts_scope(self):
        # sleep outside the window does not count
        v = sleep_variables(_seq("S" * 4 + "W" * 8 + "S" * 4), StudyWindow(4, 12, 4, 11))
        assert v.total_sleep_time_min == 0.0

    def test_window_too_long_rejected(self):
        with pytest.raises(InputError):
            sleep_variables(_seq("SW"), StudyWindow(0, 3, 0, 1))

    def test_epoch_length_scales_minutes(self):
        v = sleep_variables(
            _seq("W" * 5 + "S" * 5, epoch_seconds=60), StudyWindow(0, 10, 0, 9)
        )
        assert v.total_sleep_time_min == pytest.approx(5.0)
        assert v.sleep_latency_min == pytest.approx(5.0)


class TestPearson:
    def test_worked_example_against_oracle(self):
        x = [1.0, 2.0, 4.0, 5.0]
        y = [1.0, 3.0, 3.0, 6.0]
        got = pearson_r(x, y)
        assert got == pytest.approx(float(_mp_pearson(x, y)), abs=1e-12)
        # exact value: 14/sqrt(10*25) = 0.8856148855400952...
        assert got == pytest.approx(0.8856148855400952, abs=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.Generator(np.random.PCG64(50))
        for _ in range(25):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = 0.4 * x + rng.normal(size=n)
            assert pearson_r(x, y) == pytest.approx(
                float(_mp_pearson(x, y)), abs=1e-12
            )

    def test_affine_invariance(self):
        rng = np.random.Generator(np.random.PCG64(51))
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = pearson_r(x, y)
        assert pearson_r(3.0 * x + 7.0, 0.5 * y - 2.0) == pytest.approx(
            base, abs=1e-12
        )
        assert pearson_r(-x, y) == pytest.approx(-base, abs=1e-12)

    def test_perfect_line_is_one(self):
        x = np.arange(10.0)
        assert pearson_r(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-14)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            pearson_r([1.0], [2.0])

    @pytest.mark.parametrize("x, y", NON_FINITE_PAIRS)
    def test_non_finite_rejected(self, x, y):
        _raises_input_error_without_warnings(pearson_r, x, y)


class TestPairedT:
    def test_worked_example(self):
        # differences [1, 2, 3]: mean 2, sd 1, t = 2*sqrt(3)
        t, df, p = paired_t([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert df == 2
        assert t == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)
        assert p == pytest.approx(float(_mp_t_two_sided_p(t, 2)), abs=1e-12)
        assert p == pytest.approx(0.0742, abs=5e-4)

    def test_zero_mean_difference(self):
        t, df, p = paired_t([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])
        assert t == 0.0
        assert df == 3
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.Generator(np.random.PCG64(52))
        for _ in range(25):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = x + rng.normal(scale=0.7, size=n) + 0.2
            t, df, p = paired_t(x, y)
            assert df == n - 1
            assert p == pytest.approx(float(_mp_t_two_sided_p(t, df)), abs=1e-12)

    def test_antisymmetric_in_argument_order(self):
        rng = np.random.Generator(np.random.PCG64(53))
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        t1, _, p1 = paired_t(x, y)
        t2, _, p2 = paired_t(y, x)
        assert t2 == pytest.approx(-t1, rel=1e-12)
        assert p2 == pytest.approx(p1, rel=1e-12)

    def test_constant_difference_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            paired_t([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            paired_t([1.0], [2.0])

    @pytest.mark.parametrize("x, y", NON_FINITE_PAIRS)
    def test_non_finite_rejected(self, x, y):
        _raises_input_error_without_warnings(paired_t, x, y)


class TestTwoSidedP:
    def test_series_matches_incomplete_beta_oracle(self):
        ts = [0.0, *np.logspace(-4, 3, 11)]
        for df in [*range(1, 201), 500, 1000, 5000]:
            for t in ts:
                want = float(_mp_t_two_sided_p(t, df))
                assert _t_two_sided_p(t, df) == pytest.approx(want, abs=1e-12), (t, df)
                assert _t_two_sided_p(-t, df) == _t_two_sided_p(t, df)

    def test_small_p_keeps_relative_precision(self):
        # the absolute test above cannot see a tail taken as 1 - P(|T| < |t|):
        # at df = 42 that gave 2.2e-16 for t = 20 (truth 4.39e-23) and 0.0 for t = 40
        ts = [0.1, 0.5, 1.0, 1.5, 1.7, 1.75, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 40.0]
        for df in range(1, 201):
            for t in ts:
                want = float(_mp_t_two_sided_p(t, df))
                assert _t_two_sided_p(t, df) == pytest.approx(want, rel=1e-12, abs=0), (t, df)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5000])
    def test_infinite_t_gives_zero(self, df):
        assert _t_two_sided_p(float("inf"), df) == 0.0
