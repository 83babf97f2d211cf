"""Interrupt event sources.

Interrupts matter to the paper for one specific reason: the *standard*
Linux kernel resets the hardware thread priority to MEDIUM on every
interrupt/exception/syscall entry (section VI-A), so any priority a
balancer sets survives only until the next timer tick — at HZ=250 that
is at most 4 ms. The patched kernel removes the reset. Both behaviours
live in :mod:`repro.kernel.kernel`; this module only generates the event
streams.

Two sources are provided: the periodic timer tick, and a Poisson stream
of external/device interrupts which (like the Intel "interrupt
annoyance problem" the paper cites) can be routed entirely to CPU0.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_non_negative, check_positive

__all__ = ["KernelEvent", "InterruptSource", "TimerTickSource", "merge_sources"]

_new = object.__new__


@dataclass(frozen=True, order=True)
class KernelEvent:
    """One kernel-level event hitting a CPU.

    ``duration`` is the handler's execution time, during which the
    application process on that CPU makes no progress.
    """

    time: float
    cpu: int
    duration: float
    kind: str = "interrupt"

    def __post_init__(self) -> None:
        check_non_negative("event.time", self.time)
        check_non_negative("event.duration", self.duration)

    @classmethod
    def _trusted(cls, time: float, cpu: int, duration: float, kind: str) -> "KernelEvent":
        """An event a source builds from its checked parameters (a time
        and duration that cannot be negative), without the frozen
        ``__init__`` and its re-check."""
        event = _new(cls)
        fields = event.__dict__
        fields["time"] = time
        fields["cpu"] = cpu
        fields["duration"] = duration
        fields["kind"] = kind
        return event


#: The events' order (``KernelEvent``'s field order) as a plain tuple, so
#: merging compares tuples, not the dataclass's generated ``__lt__`` and
#: ``__eq__``; ``heapq.merge`` keeps equal keys in stream order.
_ORDER = operator.attrgetter("time", "cpu", "duration", "kind")


def _merge_events(*streams: Iterator[KernelEvent]) -> Iterator[KernelEvent]:
    """Time-ordered merge of time-ordered event streams: by ``(time, cpu,
    duration, kind)``, and on equal keys in ``streams`` order."""
    return heapq.merge(*streams, key=_ORDER)


class TimerTickSource:
    """The periodic scheduler tick on every CPU.

    Parameters
    ----------
    hz:
        Tick frequency (Linux 2.6.19 defaults to 250 on ppc64).
    handler_seconds:
        Cost of one tick handler (a few microseconds).
    cpus:
        CPUs receiving ticks.
    """

    def __init__(
        self,
        cpus: Sequence[int],
        hz: float = 250.0,
        handler_seconds: float = 3e-6,
        phase_stagger: bool = True,
    ) -> None:
        check_positive("hz", hz)
        check_non_negative("handler_seconds", handler_seconds)
        if not cpus:
            raise ConfigurationError("TimerTickSource needs at least one cpu")
        self.cpus = list(cpus)
        self.hz = float(hz)
        self.handler_seconds = float(handler_seconds)
        self.phase_stagger = phase_stagger

    def events(self) -> Iterator[KernelEvent]:
        """Every CPU's ticks from t=0 on, time-ordered, without end.

        Generated on demand: each CPU's ticks are their own stream, and
        the streams are merged by time, so a run pays only for the ticks
        it reaches.
        """
        period = 1.0 / self.hz
        n = len(self.cpus)
        return _merge_events(
            *(
                self._ticks(cpu, (i / n) * period if self.phase_stagger else 0.0, period)
                for i, cpu in enumerate(self.cpus)
            )
        )

    def _ticks(self, cpu: int, t: float, period: float) -> Iterator[KernelEvent]:
        """One CPU's ticks from ``t`` on, ``period`` apart."""
        event, handler = KernelEvent._trusted, self.handler_seconds
        while True:
            yield event(t, cpu, handler, "tick")
            t += period


class InterruptSource:
    """Poisson device-interrupt stream, optionally routed to one CPU.

    Models the paper's "interrupt annoyance problem": external interrupts
    all routed to CPU0 make the OS noise on CPU0 higher than elsewhere.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rate_hz: float,
        handler_seconds: float = 20e-6,
        cpu: int = 0,
    ) -> None:
        check_non_negative("rate_hz", rate_hz)
        check_non_negative("handler_seconds", handler_seconds)
        if cpu < 0:
            raise ConfigurationError(f"cpu must be >= 0, got {cpu}")
        self.rng = rng
        self.rate_hz = float(rate_hz)
        self.handler_seconds = float(handler_seconds)
        self.cpu = cpu

    def events(self) -> Iterator[KernelEvent]:
        """Arrivals from t=0 on, time-ordered, drawn as they are read."""
        if self.rate_hz == 0.0:
            return
        event = KernelEvent._trusted
        t = 0.0
        while True:
            t += float(self.rng.exponential(1.0 / self.rate_hz))
            yield event(t, self.cpu, self.handler_seconds, "irq")


def merge_sources(sources: Sequence[object]) -> Iterator[KernelEvent]:
    """Time-ordered merge of several sources' event streams (see
    :func:`_merge_events`)."""
    return _merge_events(*(src.events() for src in sources))
