"""Running per-state totals of a timeline, held against re-sums.

``RankTimeline`` adds each closed interval's duration to a per-state
total as it closes it. Whole-run statistics and single-state
``time_in`` read those totals, so they must be the very floats a re-sum
of ``intervals`` in interval order gives, bit for bit, under any
transition sequence: zero-length steps, ``None`` closes and repeated
states included.
"""

from hypothesis import given, settings, strategies as st

from repro.trace.events import RankState
from repro.trace.stats import RankStats, TraceStats, compute_stats
from repro.trace.trace import RankTimeline, Trace

STATES = list(RankState)

#: One transition: a time step (zero often) and the state entered
#: (``None`` closes without reopening).
step = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=5.0)),
    st.one_of(st.none(), st.sampled_from(STATES)),
)
transitions = st.lists(step, max_size=40)


def _play(timeline: RankTimeline, steps) -> float:
    now = 0.0
    for dt, state in steps:
        now += dt
        timeline.transition(now, state)
    return now


def _resum(intervals, state):
    """Durations of ``state`` added in interval order (int 0 if none)."""
    total = 0
    for iv in intervals:
        if iv.state is state:
            total = total + iv.duration
    return total


def reference_stats(trace: Trace, window=None) -> TraceStats:
    """The definitional statistics: re-sum every (clipped) interval."""
    t0, t1 = (0.0, trace.total_time) if window is None else window
    span = t1 - t0
    if span <= 0:
        return TraceStats(
            0.0, tuple(RankStats(tl.rank, 0.0, 0.0, 0.0, 0.0, 0.0) for tl in trace)
        )
    ranks = []
    for tl in trace:
        intervals = tl.intervals if window is None else tl.clipped(t0, t1)
        totals = {}
        for iv in intervals:
            totals[iv.state] = totals.get(iv.state, 0.0) + iv.duration
        accounted = sum(totals.values())
        compute = (
            totals.get(RankState.COMPUTE, 0.0)
            + totals.get(RankState.INIT, 0.0)
            + totals.get(RankState.FINAL, 0.0)
        )
        ranks.append(RankStats(
            rank=tl.rank,
            compute_fraction=compute / span,
            sync_fraction=totals.get(RankState.SYNC, 0.0) / span,
            comm_fraction=totals.get(RankState.COMM, 0.0) / span,
            noise_fraction=totals.get(RankState.NOISE, 0.0) / span,
            idle_fraction=(totals.get(RankState.IDLE, 0.0) + (span - accounted))
            / span,
        ))
    return TraceStats(total_time=span, ranks=tuple(ranks))


class TestRunningTotals:
    @given(steps=transitions)
    @settings(max_examples=200, deadline=None)
    def test_totals_equal_in_order_resum(self, steps):
        tl = RankTimeline(0)
        _play(tl, steps)
        first_seen = list(dict.fromkeys(iv.state for iv in tl.intervals))
        assert list(tl.totals) == first_seen
        for state in STATES:
            want = _resum(tl.intervals, state)
            got = tl.time_in(state)
            assert type(got) is type(want)
            assert repr(got) == repr(want)
            if state in tl.totals:
                assert tl.totals[state].hex() == want.hex()

    @given(steps=transitions, extra=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_time_in_until_counts_the_open_interval(self, steps, extra):
        tl = RankTimeline(0)
        end = _play(tl, steps)
        now = end + extra
        for state in STATES:
            want = _resum(tl.intervals, state)
            if tl.current_state is state and now > tl.open_since:
                want += now - tl.open_since
            assert repr(tl.time_in_until(now, state)) == repr(want)

    @given(
        per_rank=st.lists(transitions, min_size=1, max_size=3),
        cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_compute_stats_equals_reference(self, per_rank, cut):
        trace = Trace(len(per_rank))
        for rank, steps in enumerate(per_rank):
            _play(trace[rank], steps)
        end = max(tl.open_since for tl in trace)
        trace.finish_all(end)
        assert repr(compute_stats(trace)) == repr(reference_stats(trace))
        lo, hi = sorted(cut)
        t0, t1 = lo * end, hi * end
        if t1 > t0:
            window = (t0, t1)
            assert repr(compute_stats(trace, window)) == repr(
                reference_stats(trace, window)
            )
