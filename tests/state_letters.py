"""Test helpers: sleep/wake paths written as letters ("S" is sleep, "W"
wake), the timestamp form of the epoch CSV, and the other forms its
readers accept."""

from datetime import datetime, timedelta, timezone

import numpy as np

from actisleep.series import StateSequence, parse_timestamp


def from_letters(letters, epoch_seconds: int = 30) -> StateSequence:
    return StateSequence(np.array(["SW".index(s) for s in letters], dtype=np.int8), epoch_seconds)


def to_letters(states: StateSequence) -> list[str]:
    return ["SW"[s] for s in states.states.tolist()]


def format_timestamp(ts: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` in UTC, the year zero-padded to four digits;
    a naive ``ts`` is UTC.  The reference for the epoch writer's stamps."""
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat(timespec="seconds") + "Z"


# The stamp forms the epoch CSV readers accept; the writer writes only "Z".
STAMP_FORMS = {
    "Z": format_timestamp,
    "naive": lambda ts: ts.replace(tzinfo=None).isoformat(),
    "+01:00": lambda ts: ts.astimezone(timezone(timedelta(hours=1))).isoformat(),
}


def restamped(text: str, form: str, eol: str = "\n") -> str:
    """A written epoch CSV's text with its stamps in ``form`` and its lines ended by ``eol``."""
    header, *rows = text.splitlines()
    lines = [header]
    for row in rows:
        stamp, count = row.split(",")
        lines.append(f"{STAMP_FORMS[form](parse_timestamp(stamp))},{count}")
    return eol.join(lines) + eol
