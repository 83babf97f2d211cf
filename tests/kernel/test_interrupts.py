"""Interrupt and tick event sources."""

import itertools

import numpy as np
import pytest

import repro.kernel.interrupts as interrupts
from repro.errors import ConfigurationError
from repro.kernel.interrupts import (
    InterruptSource,
    KernelEvent,
    TimerTickSource,
    merge_sources,
)
from repro.machine.system import System, SystemConfig


def _window(src, t_end):
    """``src``'s events before ``t_end``."""
    return list(itertools.takewhile(lambda e: e.time < t_end, src.events()))


def _eager_ticks(src, t_end):
    """Every tick before ``t_end`` built into one list and sorted: how
    ticks were generated before they became lazy, kept as the reference."""
    period = 1.0 / src.hz
    events = []
    for i, cpu in enumerate(src.cpus):
        t = (i / len(src.cpus)) * period if src.phase_stagger else 0.0
        while t < t_end:
            events.append(KernelEvent(t, cpu, src.handler_seconds, "tick"))
            t += period
    events.sort()
    return events


class TestKernelEvent:
    def test_ordering_by_time(self):
        a = KernelEvent(1.0, 0, 0.0)
        b = KernelEvent(2.0, 0, 0.0)
        assert a < b

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelEvent(0.0, 0, -1.0)


class TestTimerTicks:
    def test_tick_count_matches_hz(self):
        src = TimerTickSource([0], hz=100.0, phase_stagger=False)
        events = _window(src, 1.0)
        assert len(events) == 100
        assert all(e.kind == "tick" for e in events)

    def test_all_cpus_receive_ticks(self):
        src = TimerTickSource([0, 1, 2, 3], hz=50.0)
        events = _window(src, 1.0)
        assert {e.cpu for e in events} == {0, 1, 2, 3}

    def test_stagger_spreads_phases(self):
        src = TimerTickSource([0, 1], hz=10.0, phase_stagger=True)
        events = _window(src, 0.2)
        times0 = [e.time for e in events if e.cpu == 0]
        times1 = [e.time for e in events if e.cpu == 1]
        assert times0[0] != times1[0]

    def test_time_ordered(self):
        src = TimerTickSource([0, 1, 2], hz=30.0)
        times = [e.time for e in _window(src, 1.0)]
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimerTickSource([], hz=10.0)


class TestLazyTicks:
    @pytest.mark.parametrize("stagger", [True, False])
    def test_same_events_in_the_same_order_as_the_eager_list(self, stagger):
        src = TimerTickSource([0, 1, 2, 3, 4, 5, 6, 7], hz=1000.0, phase_stagger=stagger)
        lazy = _window(src, 0.75)
        eager = _eager_ticks(src, 0.75)
        assert len(lazy) == len(eager) > 0
        assert [(e.time, e.cpu, e.duration, e.kind) for e in lazy] == [
            (e.time, e.cpu, e.duration, e.kind) for e in eager
        ]

    def test_two_node_stream_starts_without_building_the_horizon(self, monkeypatch):
        made = []

        class CountingEvent(KernelEvent):
            def __post_init__(self):
                made.append(self)
                super().__post_init__()

            @classmethod
            def _trusted(cls, *fields):
                event = super()._trusted(*fields)
                made.append(event)
                return event

        monkeypatch.setattr(interrupts, "KernelEvent", CountingEvent)
        system = System(SystemConfig(n_nodes=2, tick_hz=1000.0))
        stream = system._kernel_event_stream()
        first = list(itertools.islice(stream, 16))
        assert [e.time for e in first] == sorted(e.time for e in first)
        assert {e.cpu for e in first} == set(range(8))
        # One pending tick per CPU beyond those taken: the stream has no
        # horizon to build up front.
        assert len(made) <= len(first) + 8


class _Listed:
    """A source replaying a fixed, time-ordered event list."""

    def __init__(self, *events):
        self._events = events

    def events(self):
        return iter(self._events)


class TestMergeOrder:
    def test_equal_times_go_by_cpu_then_duration_then_kind(self):
        tick = _Listed(
            KernelEvent(0.5, 1, 3e-6, "tick"), KernelEvent(1.0, 0, 3e-6, "tick")
        )
        irq = _Listed(
            KernelEvent(0.5, 0, 2e-5, "irq"), KernelEvent(1.0, 0, 3e-6, "irq")
        )
        noise = _Listed(
            KernelEvent(0.5, 1, 1e-6, "noise:d"), KernelEvent(1.0, 0, 3e-6, "irq")
        )
        merged = [
            (e.time, e.cpu, e.duration, e.kind)
            for e in merge_sources([tick, irq, noise])
        ]
        assert merged == [
            (0.5, 0, 2e-5, "irq"),
            (0.5, 1, 1e-6, "noise:d"),
            (0.5, 1, 3e-6, "tick"),
            (1.0, 0, 3e-6, "irq"),
            (1.0, 0, 3e-6, "irq"),
            (1.0, 0, 3e-6, "tick"),
        ]

    def test_equal_events_keep_their_sources_order(self):
        first = KernelEvent(0.25, 2, 1e-6, "irq")
        second = KernelEvent(0.25, 2, 1e-6, "irq")
        merged = list(merge_sources([_Listed(first), _Listed(second)]))
        assert merged[0] is first and merged[1] is second

    def test_source_built_events_equal_checked_ones(self):
        ticks = _window(TimerTickSource([0, 1], hz=100.0), 0.05)
        assert ticks == [KernelEvent(e.time, e.cpu, e.duration, e.kind) for e in ticks]
        assert all(type(e) is KernelEvent for e in ticks)


class TestInterruptSource:
    def _rng(self, seed=0):
        return np.random.Generator(np.random.PCG64(seed))

    def test_poisson_rate_approximate(self):
        src = InterruptSource(self._rng(), rate_hz=200.0, cpu=0)
        events = _window(src, 50.0)
        assert len(events) == pytest.approx(10_000, rel=0.1)

    def test_all_routed_to_cpu0(self):
        """The 'interrupt annoyance problem': all device IRQs on CPU0."""
        src = InterruptSource(self._rng(), rate_hz=100.0, cpu=0)
        assert all(e.cpu == 0 for e in _window(src, 5.0))

    def test_zero_rate_is_silent(self):
        src = InterruptSource(self._rng(), rate_hz=0.0)
        assert _window(src, 100.0) == []

    def test_deterministic_given_seed(self):
        e1 = [e.time for e in _window(InterruptSource(self._rng(9), 50.0), 2.0)]
        e2 = [e.time for e in _window(InterruptSource(self._rng(9), 50.0), 2.0)]
        assert e1 == e2


class TestMerge:
    def test_merged_streams_time_ordered(self):
        ticks = TimerTickSource([0, 1], hz=25.0)
        irqs = InterruptSource(np.random.Generator(np.random.PCG64(1)), 40.0)
        merged = list(
            itertools.takewhile(lambda e: e.time < 2.0, merge_sources([ticks, irqs]))
        )
        times = [e.time for e in merged]
        assert times == sorted(times)
        assert {e.kind for e in merged} == {"tick", "irq"}
