"""Threshold-scorer tests: rescoring arithmetic, window detection, assembly."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actisleep.actiwatch import AsConfig, as_score, find_sleep_end, find_sleep_start, rescore
from actisleep.errors import ConfigError, InputError
from actisleep.postprocess import _run_arrays
from actisleep.series import EpochSeries, State, StudyWindow

from state_letters import to_letters

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


def _series(counts, epoch_seconds=30):
    return EpochSeries(T0, epoch_seconds, np.asarray(counts, dtype=np.int64))


class TestRescore:
    def test_single_spike_60s(self):
        # each neighbor within 60 s contributes count/5, within 120 s count/25
        totals = rescore(_series([0, 0, 100, 0, 0], 60))
        assert np.array_equal(totals, [4.0, 20.0, 100.0, 20.0, 4.0])

    def test_all_zero(self):
        assert np.array_equal(rescore(_series([0] * 8, 30)), np.zeros(8))

    def test_banding_30s(self):
        # offsets 30 s and 60 s fall in the /5 band, 90 s and 120 s in /25
        totals = rescore(_series([0, 0, 100, 0, 0, 0], 30))
        assert totals[2] == 100.0
        assert totals[3] == 20.0
        assert totals[4] == 20.0
        assert totals[5] == 4.0
        assert totals[0] == 20.0

    def test_linearity(self):
        rng = np.random.Generator(np.random.PCG64(40))
        c1 = rng.integers(0, 200, size=50)
        c2 = rng.integers(0, 200, size=50)
        lhs = rescore(_series(c1 + c2, 30))
        rhs = rescore(_series(c1, 30)) + rescore(_series(c2, 30))
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-9)

    def test_unsupported_epoch_length(self):
        with pytest.raises(ConfigError):
            rescore(_series([1, 2, 3], 5))


class TestFindSleepStart:
    def test_all_quiet_returns_go_to_bed(self):
        scores = np.zeros(60)
        assert find_sleep_start(scores, 30, 7, AsConfig()) == 7

    def test_all_loud_returns_none(self):
        scores = np.full(60, 50.0)
        assert find_sleep_start(scores, 30, 0, AsConfig()) is None

    def test_exactly_two_violations_allowed(self):
        # 30 s epochs: W=20, K=2, per-epoch threshold 4*30/60 = 2
        scores = np.array([0.0] * 9 + [5.0, 5.0] + [0.0] * 30)
        assert find_sleep_start(scores, 30, 0, AsConfig()) == 0

    def test_three_violations_push_start_past_them(self):
        scores = np.array([0.0] * 8 + [5.0, 5.0, 5.0] + [0.0] * 30)
        # any block containing all three spikes fails; first block with <= 2
        assert find_sleep_start(scores, 30, 0, AsConfig()) == 9

    def test_never_before_go_to_bed(self):
        scores = np.zeros(80)
        for bed in (0, 5, 31):
            got = find_sleep_start(scores, 30, bed, AsConfig())
            assert got is not None and got >= bed

    def test_go_to_bed_out_of_bounds(self):
        with pytest.raises(InputError):
            find_sleep_start(np.zeros(10), 30, 10, AsConfig())

    def test_threshold_is_strict_inequality(self):
        # scores exactly at the per-epoch threshold do not count as above
        scores = np.full(40, 2.0)
        assert find_sleep_start(scores, 30, 0, AsConfig()) == 0

    def test_huge_tolerance_acts_like_one_longer_than_the_recording(self):
        # 60 x 1e308 overflows to inf, and inf // 30 is NaN
        scores = np.array([0.0, 50.0] * 30)
        longer = find_sleep_start(scores, 30, 3, AsConfig(start_tolerance_minutes=1e6))
        assert longer == 3
        assert find_sleep_start(scores, 30, 3, AsConfig(start_tolerance_minutes=1e308)) == longer


class TestFindSleepEnd:
    def test_all_quiet_returns_get_up(self):
        scores = np.zeros(60)
        assert find_sleep_end(scores, 30, 44, AsConfig()) == 44

    def test_all_loud_returns_none(self):
        scores = np.full(60, 50.0)
        assert find_sleep_end(scores, 30, 59, AsConfig()) is None

    def test_single_qualifying_block_ends_at_100(self):
        # 30 s epochs: window 12, threshold 6*30/60 = 3, tolerance 2.
        # Quiet stretch 89..98; blocks ending after 100 contain >= 3 loud
        # epochs, so the latest qualifying block ends exactly at 100.
        scores = np.full(160, 10.0)
        scores[89:99] = 0.0
        assert find_sleep_end(scores, 30, 150, AsConfig()) == 100

    def test_never_after_get_up(self):
        scores = np.zeros(80)
        for up in (20, 50, 79):
            got = find_sleep_end(scores, 30, up, AsConfig())
            assert got is not None and got <= up

    def test_threshold_is_strict_inequality(self):
        # 30 s epochs: per-epoch threshold 6*30/60 = 3. Scores exactly at it do
        # not count as above; 3.04, the next rescored total, does.
        assert find_sleep_end(np.full(40, 3.0), 30, 39, AsConfig()) == 39
        assert find_sleep_end(np.full(40, 3.04), 30, 39, AsConfig()) is None

    def test_get_up_out_of_bounds(self):
        with pytest.raises(InputError):
            find_sleep_end(np.zeros(10), 30, -1, AsConfig())

    def test_window_longer_than_the_data_before_get_up(self):
        # 30 s epochs: the 12-epoch block cannot end at or before epoch 5
        assert find_sleep_end(np.zeros(60), 30, 5, AsConfig()) is None
        assert find_sleep_end(np.zeros(60), 30, 11, AsConfig()) == 11


class TestBlockSearchProperty:
    """Both finds match a count of each block's loud epochs, block by block."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from([15, 30, 60, 120]),
        # 0..14 holds every per-epoch threshold (1, 2, 4, 8 to start; 1.5, 3, 6, 12 to end)
        st.lists(st.integers(0, 14).map(float), min_size=1, max_size=40),
        st.integers(1, 45),  # window in epochs, up to longer than the data
        st.integers(0, 50),  # tolerance in epochs, up to above the window
        st.integers(-2, 42),
        st.integers(-2, 42),
    )
    def test_matches_brute_force_block_counts(
        self, epoch_seconds, scores, window, tolerance, go_to_bed, get_up
    ):
        n = len(scores)
        minutes = window * epoch_seconds / 60.0  # a whole number of epochs, exactly
        cfg = AsConfig(
            start_window_minutes=minutes,
            end_window_minutes=minutes,
            start_tolerance_minutes=tolerance * epoch_seconds / 60.0,
            end_tolerance_epochs=tolerance,
        )

        def quiet(end, cpm):  # the block of `window` epochs that ends at `end`
            if end + 1 < window:
                return False
            block = scores[end + 1 - window : end + 1]
            return sum(score > cpm * epoch_seconds / 60.0 for score in block) <= tolerance

        if 0 <= go_to_bed < n:
            want = next(
                (t for t in range(go_to_bed, n) if t + window <= n and quiet(t + window - 1, 4.0)),
                None,
            )
            assert find_sleep_start(np.array(scores), epoch_seconds, go_to_bed, cfg) == want
        else:
            with pytest.raises(InputError, match="go_to_bed"):
                find_sleep_start(np.array(scores), epoch_seconds, go_to_bed, cfg)
        if 0 <= get_up < n:
            want = next((end for end in range(get_up, -1, -1) if quiet(end, 6.0)), None)
            assert find_sleep_end(np.array(scores), epoch_seconds, get_up, cfg) == want
        else:
            with pytest.raises(InputError, match="get_up"):
                find_sleep_end(np.array(scores), epoch_seconds, get_up, cfg)


class TestWindowLength:
    @pytest.mark.parametrize(
        "minutes", [{"start_window_minutes": 0.2}, {"end_window_minutes": 0.2},
                    {"start_window_minutes": 0.25, "end_window_minutes": 0.25}]
    )
    def test_window_under_one_epoch_rejected(self, minutes):
        series = _series(np.zeros(2880, dtype=np.int64), 30)
        with pytest.raises(ConfigError, match="window"):
            as_score(series, StudyWindow(0, 2880, 0, 2879), AsConfig(**minutes))

    def test_one_epoch_window_accepted(self):
        cfg = AsConfig(
            start_window_minutes=0.5,
            end_window_minutes=0.5,
            start_tolerance_minutes=0.0,
            end_tolerance_epochs=0,
        )
        scores = np.array([9.0, 0.0, 9.0, 0.0, 9.0])
        assert find_sleep_start(scores, 30, 0, cfg) == 1
        assert find_sleep_end(scores, 30, 4, cfg) == 3

    @pytest.mark.parametrize("field", ["start_window_minutes", "end_window_minutes"])
    def test_huge_window_acts_like_one_longer_than_the_recording(self, field):
        series = _series(np.zeros(2880, dtype=np.int64), 30)
        result = as_score(series, StudyWindow(0, 2880, 0, 2879), AsConfig(**{field: 1e308}))
        assert result.all_wake_fallback
        assert not np.any(result.states.states == State.SLEEP)


class TestAsScore:
    def _night(self):
        # quiet interior, activity bursts at both ends, 30 s epochs
        rng = np.random.Generator(np.random.PCG64(41))
        counts = np.zeros(1440, dtype=np.int64)
        counts[:100] = rng.integers(50, 200, size=100)
        counts[1100:] = rng.integers(50, 200, size=340)
        return _series(counts, 30)

    def test_assembly_from_endpoints(self):
        series = self._night()
        window = StudyWindow(0, 1440, 0, 1439)
        result = as_score(series, window)
        assert not result.all_wake_fallback
        start, end = result.sleep_start, result.sleep_end
        states = result.states.states
        assert np.all(states[start : end + 1] == State.SLEEP)
        assert np.all(states[:start] == State.WAKE)
        assert np.all(states[end + 1 :] == State.WAKE)

    def test_pinned_interval_day(self):
        # endpoints 20 and 900 on a 1,440-epoch day
        counts = np.zeros(1440, dtype=np.int64)
        counts[:18] = 500
        counts[903:] = 500
        series = _series(counts, 30)
        result = as_score(series, StudyWindow(0, 1440, 20, 900))
        assert result.sleep_start == 20
        assert result.sleep_end == 900
        letters = to_letters(result.states)
        assert letters[:20] == ["W"] * 20
        assert letters[20:901] == ["S"] * 881
        assert letters[901:] == ["W"] * 539

    def test_all_loud_falls_back_to_wake(self):
        counts = np.full(200, 1000, dtype=np.int64)
        result = as_score(_series(counts, 30), StudyWindow(0, 200, 0, 199))
        assert result.all_wake_fallback
        assert np.all(result.states.states == State.WAKE)

    def test_crossed_endpoints_fall_back(self):
        # quiet head and tail, loud middle: start lands after end
        counts = np.zeros(300, dtype=np.int64)
        counts[40:260] = 1000
        result = as_score(_series(counts, 30), StudyWindow(0, 300, 30, 50))
        assert result.all_wake_fallback
        assert np.all(result.states.states == State.WAKE)

    def test_at_most_one_sleep_run(self):
        rng = np.random.Generator(np.random.PCG64(42))
        for _ in range(20):
            counts = rng.integers(0, 30, size=400)
            counts[rng.random(400) < 0.6] = 0
            result = as_score(_series(counts, 30), StudyWindow(0, 400, 0, 399))
            states = result.states.states
            starts, _ = _run_arrays(states)
            assert np.sum(states[starts] == State.SLEEP) <= 1

    def test_raw_thresholds_mode(self):
        counts = np.zeros(1440, dtype=np.int64)
        counts[:18] = 500
        counts[903:] = 500
        series = _series(counts, 30)
        cfg = AsConfig(raw_thresholds=True)
        result = as_score(series, StudyWindow(0, 1440, 0, 1439), cfg)
        assert not result.all_wake_fallback
        # raw counts ignore neighborhood bleed; the first 20-epoch block
        # with at most 2 loud epochs starts at 16 (loud epochs 16, 17)
        assert result.sleep_start == 16

    def test_epoch_length_invariance_of_thresholds(self):
        # same physical activity at 30 s and 60 s granularity gives the
        # same physical endpoints to within one coarse epoch (per-epoch
        # threshold = cpm*len/60 keeps the per-minute semantics fixed)
        counts30 = np.zeros(1440, dtype=np.int64)
        counts30[:20] = 300
        counts30[1000:] = 300
        counts60 = counts30.reshape(-1, 2).sum(axis=1)
        r30 = as_score(_series(counts30, 30), StudyWindow(0, 1440, 0, 1439))
        r60 = as_score(_series(counts60, 60), StudyWindow(0, 720, 0, 719))
        assert abs(r30.sleep_start - 2 * r60.sleep_start) <= 2
        assert abs(r30.sleep_end - (2 * r60.sleep_end + 1)) <= 2


class TestAsConfig:
    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            AsConfig(immobility_start_cpm=0.0)

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError):
            AsConfig(end_tolerance_epochs=-1)

    @pytest.mark.parametrize(
        "field",
        [
            "immobility_start_cpm",
            "immobility_end_cpm",
            "start_window_minutes",
            "end_window_minutes",
        ],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_threshold_or_window_not_positive_finite(self, field, value):
        with pytest.raises(ConfigError, match="positive and finite"):
            AsConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["start_tolerance_minutes", "end_tolerance_epochs"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1])
    def test_tolerance_not_non_negative_finite(self, field, value):
        with pytest.raises(ConfigError, match="non-negative and finite"):
            AsConfig(**{field: value})
