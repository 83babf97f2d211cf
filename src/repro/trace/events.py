"""Trace primitives: rank states and state intervals.

The state vocabulary mirrors what the paper's PARAVER screenshots colour:
dark grey = computing, light grey = waiting at a synchronisation point,
black = communication, white = initialisation. We add ``NOISE`` for time
stolen by the simulated OS and ``IDLE`` for after a rank finalises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TraceError

__all__ = ["RankState", "StateInterval"]

_new = object.__new__


class RankState(enum.Enum):
    """What a rank is doing during an interval."""

    INIT = "init"  # application initialisation phase
    COMPUTE = "compute"  # useful work
    SYNC = "sync"  # spinning at a barrier / wait / recv
    COMM = "comm"  # transferring data
    FINAL = "final"  # finalisation phase
    NOISE = "noise"  # preempted by OS noise (daemon, interrupt handler)
    IDLE = "idle"  # finished, context idle

    #: Singletons: hash by identity, not by Enum's hash of the name.
    __hash__ = object.__hash__

    @property
    def is_waiting(self) -> bool:
        """Counts toward the paper's 'waiting time' metric."""
        return self is RankState.SYNC

    @property
    def is_useful(self) -> bool:
        """Counts toward the paper's 'computing' percentage.

        The paper folds init/finalisation compute into the computing
        colour of its traces; we do the same.
        """
        return self in (RankState.COMPUTE, RankState.INIT, RankState.FINAL)

    @property
    def glyph(self) -> str:
        """One-character representation for ASCII Gantt rendering."""
        return {
            RankState.INIT: ".",
            RankState.COMPUTE: "#",
            RankState.SYNC: " ",
            RankState.COMM: "|",
            RankState.FINAL: "+",
            RankState.NOISE: "!",
            RankState.IDLE: "_",
        }[self]


@dataclass(frozen=True)
class StateInterval:
    """One contiguous span of a rank's timeline in a single state."""

    start: float
    end: float
    state: RankState

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise TraceError(f"interval ends before it starts: {self}")

    @classmethod
    def _trusted(cls, start: float, end: float, state: RankState) -> "StateInterval":
        """An interval whose ``start <= end`` the caller has already
        proved, built without the frozen ``__init__`` and its check (a
        timeline closes one per state change)."""
        interval = _new(cls)
        fields = interval.__dict__
        fields["start"] = start
        fields["end"] = end
        fields["state"] = state
        return interval

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, t0: float, t1: float) -> bool:
        """Does this interval intersect [t0, t1)?"""
        return self.start < t1 and t0 < self.end

    def clipped(self, t0: float, t1: float) -> "StateInterval":
        """This interval restricted to [t0, t1]."""
        if not self.overlaps(t0, t1) and not (self.start == self.end and t0 <= self.start <= t1):
            raise TraceError(f"clip window [{t0}, {t1}] disjoint from {self}")
        return StateInterval(max(self.start, t0), min(self.end, t1), self.state)
