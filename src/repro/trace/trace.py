"""Trace accumulation: per-rank timelines of state intervals.

The MPI runtime emits state *transitions* (``rank r enters state s at
time t``); :class:`RankTimeline` closes the previous interval on each
transition. Zero-length intervals are dropped — fluid simulation
produces many back-to-back transitions at the same instant.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import TraceError
from repro.trace.events import RankState, StateInterval

__all__ = ["RankTimeline", "Trace"]


class RankTimeline:
    """State history of one rank."""

    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise TraceError(f"rank must be >= 0, got {rank}")
        self.rank = rank
        self.intervals: List[StateInterval] = []
        #: Per-state running sum of closed durations, added in interval
        #: order: the floats a re-sum of ``intervals`` gives, bit for bit.
        self.totals: Dict[RankState, float] = {}
        self._open_state: Optional[RankState] = None
        self._open_since: float = 0.0
        self._closed = False

    @property
    def current_state(self) -> Optional[RankState]:
        return self._open_state

    @property
    def open_since(self) -> float:
        """Start time of the currently open interval (if any)."""
        return self._open_since

    def time_in_until(self, now: float, *states: RankState) -> float:
        """Like :meth:`time_in`, but counts the open interval up to ``now``.

        This is what an online controller (the dynamic balancer) sees at
        instant ``now`` — closed history plus the in-progress state.
        """
        total = self.time_in(*states)
        if self._open_state in states and now > self._open_since:
            total += now - self._open_since
        return total

    def transition(self, time: float, state: Optional[RankState]) -> None:
        """Enter ``state`` at ``time`` (``None`` closes without reopening)."""
        if self._closed:
            raise TraceError(f"rank {self.rank}: transition after finish()")
        if self._open_state is not None:
            if time < self._open_since:
                raise TraceError(
                    f"rank {self.rank}: time went backwards "
                    f"({time} < {self._open_since})"
                )
            if time > self._open_since:
                closing = self._open_state
                self.intervals.append(
                    StateInterval._trusted(self._open_since, time, closing)
                )
                totals = self.totals
                totals[closing] = totals.get(closing, 0.0) + (time - self._open_since)
        self._open_state = state
        self._open_since = time

    def finish(self, time: float) -> None:
        """Close the timeline at ``time``; further transitions are errors."""
        self.transition(time, None)
        self._closed = True

    @property
    def end_time(self) -> float:
        """Time of the last recorded activity."""
        if self.intervals:
            return self.intervals[-1].end
        return self._open_since

    def time_in(self, *states: RankState) -> float:
        """Total recorded time spent in any of ``states`` (int 0 if none)."""
        return sum(self.totals.get(s, 0) for s in dict.fromkeys(states))

    def state_at(self, time: float) -> Optional[RankState]:
        """State at instant ``time`` (None outside recorded span)."""
        for iv in self.intervals:
            if iv.start <= time < iv.end:
                return iv.state
        return None

    def clipped(self, t0: float, t1: float) -> List[StateInterval]:
        """Intervals restricted to the window [t0, t1]."""
        if t1 < t0:
            raise TraceError(f"bad clip window [{t0}, {t1}]")
        return [iv.clipped(t0, t1) for iv in self.intervals if iv.overlaps(t0, t1)]

    def validate(self) -> None:
        """Raise :class:`TraceError` unless this timeline is well formed.

        Well-formed means what the runtime's enter/exit discipline
        guarantees by construction: strictly positive interval durations,
        monotonically increasing timestamps, and *contiguity* — each
        interval opens exactly when its predecessor closes (the
        transition API closes and reopens at the same instant, and
        zero-length intervals are dropped). The oracle layer replays this
        check over finished traces so a future refactor of the event loop
        cannot silently emit overlapping or time-travelling intervals.
        """
        prev_end: Optional[float] = None
        for i, iv in enumerate(self.intervals):
            if iv.end <= iv.start:
                raise TraceError(
                    f"rank {self.rank}: interval {i} has non-positive "
                    f"duration: {iv}"
                )
            if prev_end is not None and iv.start != prev_end:
                raise TraceError(
                    f"rank {self.rank}: interval {i} opens at {iv.start} "
                    f"but its predecessor closed at {prev_end}"
                )
            prev_end = iv.end
        if self._closed and self._open_state is not None:  # pragma: no cover
            raise TraceError(f"rank {self.rank}: closed timeline left an open state")


class Trace:
    """A full application trace: one timeline per rank plus run metadata."""

    def __init__(self, n_ranks: int, label: str = "") -> None:
        if n_ranks <= 0:
            raise TraceError(f"n_ranks must be > 0, got {n_ranks}")
        self.label = label
        self.timelines: Dict[int, RankTimeline] = {
            r: RankTimeline(r) for r in range(n_ranks)
        }

    @property
    def n_ranks(self) -> int:
        return len(self.timelines)

    def __getitem__(self, rank: int) -> RankTimeline:
        try:
            return self.timelines[rank]
        except KeyError:
            raise TraceError(f"no rank {rank} in trace (n_ranks={self.n_ranks})") from None

    def __iter__(self) -> Iterable[RankTimeline]:
        # Built in rank order and never extended.
        return iter(self.timelines.values())

    def transition(self, rank: int, time: float, state: Optional[RankState]) -> None:
        """Record a state transition for ``rank``."""
        self[rank].transition(time, state)

    def finish_all(self, time: float) -> None:
        """Close every still-open timeline at ``time``."""
        for tl in self.timelines.values():
            if not tl._closed:
                tl.finish(time)

    @property
    def total_time(self) -> float:
        """End of the latest timeline — the application's execution time."""
        return max((tl.end_time for tl in self.timelines.values()), default=0.0)

    def validate(self) -> None:
        """Validate every rank timeline (see :meth:`RankTimeline.validate`)."""
        for tl in self:
            tl.validate()
