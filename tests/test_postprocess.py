"""Run-smoothing tests: worked examples plus property tests over random inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actisleep.errors import InputError
from actisleep.postprocess import _run_arrays, smooth
from actisleep.series import StateSequence

from state_letters import from_letters, to_letters


def _seq(letters, epoch_seconds=30):
    return from_letters(letters, epoch_seconds)


def _reference_smooth(states, min_minutes=15.0):
    """Quadratic list-splicing smoother: rescan for the (length, start)
    minimum short run, absorb it, merge equal neighbors, repeat.  Runs
    are (state, start, length) tuples."""
    min_epochs = min_minutes * 60.0 / states.epoch_seconds
    starts, lengths = _run_arrays(states.states)
    run_list = [
        (int(states.states[start]), int(start), int(length))
        for start, length in zip(starts, lengths)
    ]
    while len(run_list) > 1:
        short = [r for r in run_list if r[2] < min_epochs]
        if not short:
            break
        victim = min(short, key=lambda r: (r[2], r[1]))
        i = run_list.index(victim)
        if i == 0:
            new_state = run_list[1][0]
        elif i == len(run_list) - 1:
            new_state = run_list[i - 1][0]
        else:
            prev_run, next_run = run_list[i - 1], run_list[i + 1]
            new_state = prev_run[0] if prev_run[2] >= next_run[2] else next_run[0]
        run_list[i] = (new_state, victim[1], victim[2])
        j = i
        while j > 0 and run_list[j - 1][0] == run_list[j][0]:
            state, start, length = run_list[j - 1]
            run_list[j - 1 : j + 1] = [(state, start, length + run_list[j][2])]
            j -= 1
        while j < len(run_list) - 1 and run_list[j + 1][0] == run_list[j][0]:
            state, start, length = run_list[j]
            run_list[j : j + 2] = [(state, start, length + run_list[j + 1][2])]
    out = np.empty(len(states), dtype=np.int8)
    for state, start, length in run_list:
        out[start : start + length] = state
    return out


class TestWorkedExamples:
    def test_interior_short_wake_absorbed(self):
        # 30 s epochs: Sleep x40, Wake x10 (5 min), Sleep x40 -> all Sleep
        states = _seq("S" * 40 + "W" * 10 + "S" * 40)
        out = smooth(states, 15)
        assert to_letters(out) == ["S"] * 90

    def test_already_smooth_is_identity(self):
        states = _seq("S" * 30 + "W" * 35 + "S" * 40)
        out = smooth(states, 15)
        assert np.array_equal(out.states, states.states)

    def test_boundary_run_absorbed(self):
        states = _seq("W" * 5 + "S" * 100)
        out = smooth(states, 15)
        assert to_letters(out) == ["S"] * 105

    def test_interior_tie_takes_preceding(self):
        # runs alternate, so both neighbors of a short interior run share
        # one state and the run merges with them into a single run
        states = _seq("S" * 40 + "W" * 4 + "S" * 40)
        assert to_letters(smooth(states, 15)) == ["S"] * 84
        states = _seq("W" * 40 + "S" * 4 + "W" * 40)
        assert to_letters(smooth(states, 15)) == ["W"] * 84

    def test_epoch_length_invariance(self):
        # 5 minutes of wake is short at any epoch length
        at_30s = smooth(_seq("S" * 40 + "W" * 10 + "S" * 40, 30), 15)
        at_60s = smooth(_seq("S" * 20 + "W" * 5 + "S" * 20, 60), 15)
        assert to_letters(at_30s) == ["S"] * 90
        assert to_letters(at_60s) == ["S"] * 45

    def test_min_minutes_zero_is_identity(self):
        states = _seq("SWSWSW")
        assert np.array_equal(smooth(states, 0).states, states.states)

    @pytest.mark.parametrize("min_minutes", [-3.0, float("nan"), float("inf")])
    def test_bad_min_minutes_rejected(self, min_minutes):
        with pytest.raises(InputError, match="non-negative and finite"):
            smooth(_seq("SWSWSW"), min_minutes)

    def test_single_run_unchanged(self):
        states = _seq("W" * 7)
        assert np.array_equal(smooth(states, 15).states, states.states)


@st.composite
def state_sequences(draw):
    epoch_seconds = draw(st.sampled_from([15, 30, 60]))
    n = draw(st.integers(min_value=1, max_value=120))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return StateSequence(np.array(bits, dtype=np.int8), epoch_seconds)


class TestProperties:
    @settings(max_examples=1000, deadline=None)
    @given(state_sequences())
    def test_contract(self, states):
        out = smooth(states, 15)
        # length preservation
        assert len(out) == len(states)
        # idempotence
        assert np.array_equal(smooth(out, 15).states, out.states)
        # every surviving run is long enough, unless only one run remains
        min_epochs = 15 * 60 / states.epoch_seconds
        _, run_lengths = _run_arrays(out.states)
        if len(run_lengths) > 1:
            assert np.all(run_lengths >= min_epochs)

    @settings(max_examples=1000, deadline=None)
    @given(state_sequences(), st.sampled_from([0.0, 1.0, 5.0, 7.5, 15.0, 30.0]))
    def test_matches_reference(self, states, min_minutes):
        out = smooth(states, min_minutes)
        assert out.states.dtype == np.int8
        assert np.array_equal(out.states, _reference_smooth(states, min_minutes))

    def test_matches_reference_on_long_fragmented_sequence(self):
        rng = np.random.Generator(np.random.PCG64(40))
        flips = rng.random(20_000) < 0.15
        states = StateSequence((np.cumsum(flips) % 2).astype(np.int8), 30)
        assert np.array_equal(smooth(states).states, _reference_smooth(states))
