"""Sleep/wake paths written as letters in tests: "S" is sleep, "W" wake."""

import numpy as np

from actisleep.series import StateSequence


def from_letters(letters, epoch_seconds: int = 30) -> StateSequence:
    return StateSequence(np.array(["SW".index(s) for s in letters], dtype=np.int8), epoch_seconds)


def to_letters(states: StateSequence) -> list[str]:
    return ["SW"[s] for s in states.states.tolist()]
