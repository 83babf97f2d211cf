"""The public contracts of the trace's value records.

The runtime builds :class:`StateInterval` and :class:`RankStats` through
a fast path that skips the frozen dataclass ``__init__``; the records it
yields must be indistinguishable from publicly constructed ones, and the
public constructor keeps its checks.
"""

import dataclasses
import pickle

import pytest

from repro.errors import TraceError
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System
from repro.trace.events import RankState, StateInterval
from repro.trace.stats import RankStats
from repro.workloads.generators import barrier_loop_programs


@pytest.fixture(scope="module")
def result():
    return System().run(
        barrier_loop_programs([1e9, 2e9, 1.5e9, 3e9], iterations=2),
        ProcessMapping.identity(4),
    )


class TestStateInterval:
    def test_reversed_interval_still_rejected(self):
        with pytest.raises(TraceError):
            StateInterval(2.0, 1.0, RankState.SYNC)

    def test_recorded_intervals_equal_public_ones(self, result):
        for tl in result.trace:
            assert tl.intervals
            for iv in tl.intervals:
                public = StateInterval(iv.start, iv.end, iv.state)
                assert iv == public and hash(iv) == hash(public)
                assert repr(iv) == repr(public)
                assert type(iv) is StateInterval

    def test_recorded_intervals_are_immutable(self, result):
        iv = result.trace[0].intervals[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            iv.end = 0.0
        assert dataclasses.astuple(iv) == (iv.start, iv.end, iv.state)
        assert pickle.loads(pickle.dumps(iv)) == iv

    def test_equality_is_by_value_and_type(self):
        iv = StateInterval(1.0, 2.0, RankState.COMPUTE)
        assert iv == StateInterval(1.0, 2.0, RankState.COMPUTE)
        assert iv != StateInterval(1.0, 2.5, RankState.COMPUTE)
        assert iv != (1.0, 2.0, RankState.COMPUTE)
        assert repr(iv) == (
            "StateInterval(start=1.0, end=2.0, state=<RankState.COMPUTE: 'compute'>)"
        )


class TestRankStats:
    def test_computed_stats_equal_public_ones(self, result):
        for stats in result.stats.ranks:
            public = RankStats(**dataclasses.asdict(stats))
            assert stats == public and hash(stats) == hash(public)
            assert repr(stats) == repr(public)
            assert type(stats) is RankStats

    def test_computed_stats_are_immutable(self, result):
        stats = result.stats.ranks[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.sync_fraction = 0.0
        assert pickle.loads(pickle.dumps(stats)) == stats

    def test_equality_is_by_value_and_type(self):
        stats = RankStats(0, 0.5, 0.25, 0.125, 0.0, 0.125)
        assert stats == RankStats(0, 0.5, 0.25, 0.125, 0.0, 0.125)
        assert stats != RankStats(1, 0.5, 0.25, 0.125, 0.0, 0.125)
        assert stats != (0, 0.5, 0.25, 0.125, 0.0, 0.125)
        assert repr(stats) == (
            "RankStats(rank=0, compute_fraction=0.5, sync_fraction=0.25, "
            "comm_fraction=0.125, noise_fraction=0.0, idle_fraction=0.125)"
        )
