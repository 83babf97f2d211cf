"""Self-tests for the benchmark harness (no program run needed).

    python3 -m pytest perfbench/tests -q
"""

import pytest

from perfbench.spans import Span, Tracer, resolve_requests, self_times
from perfbench.stats import (
    Outcomes,
    beyond,
    min_samples_for,
    percentile,
    tail_percentile,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _traced(clock):
    return Tracer(clock=clock)


# -- self time -----------------------------------------------------------------------


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    t = _traced(clock)
    root = t.begin("root")            # 0 .. 10
    clock.now = 1.0
    a = t.begin("a")                  # 1 .. 4
    clock.now = 2.0
    inner = t.begin("inner")          # 2 .. 3, nested in a
    clock.now = 3.0
    t.end(inner)
    clock.now = 4.0
    t.end(a)
    clock.now = 6.0
    b = t.begin("b")                  # 6 .. 8, sibling of a
    clock.now = 8.0
    t.end(b)
    clock.now = 10.0
    t.end(root)

    by_name = {s.name: s for s in t.spans}
    selfs = self_times(t.spans)
    assert selfs[by_name["root"].sid] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[by_name["a"].sid] == pytest.approx(3.0 - 1.0)
    assert selfs[by_name["inner"].sid] == pytest.approx(1.0)
    assert selfs[by_name["b"].sid] == pytest.approx(2.0)
    assert by_name["inner"].parent == by_name["a"].sid
    assert by_name["b"].parent == by_name["root"].sid


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, None, "root", 0.0, 10.0, None, None),
        Span(2, 1, "x", 1.0, 5.0, None, None),
        Span(3, 1, "y", 3.0, 7.0, None, None),   # overlaps x (another thread)
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0)


def test_request_id_set_late_reaches_every_span_of_the_request():
    clock = FakeClock()
    t = _traced(clock)
    root = t.begin("server.post")
    early = t.begin("jobs.from_doc")   # before the job id exists
    t.end(early)
    t.set_request("job-1")
    late = t.begin("cache.claim")
    t.end(late)
    t.end(root)
    assert {s.rid for s in resolve_requests(t.spans)} == {"job-1"}


# -- wrapping ------------------------------------------------------------------------


class Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls, x


def test_wrap_records_spans_and_uninstall_restores():
    t = Tracer()
    original_method = Target.__dict__["method"]
    original_build = Target.__dict__["build"]
    t.wrap(Target, "method", "m", note=lambda args, result: result)
    t.wrap(Target, "build", "b")
    assert Target().method(1) == 2
    assert Target.build(5) == (Target, 5)
    assert [(s.name, s.attr) for s in t.spans] == [("m", 2), ("b", None)]
    t.uninstall()
    assert Target.__dict__["method"] is original_method
    assert Target.__dict__["build"] is original_build


def test_wrap_marks_spans_of_raising_calls():
    t = Tracer()

    class Boom:
        def go(self):
            raise ValueError("no")

    t.wrap(Boom, "go", "go")
    with pytest.raises(ValueError):
        Boom().go()
    assert t.spans[0].attr == "error"


# -- percentiles ---------------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))          # 100 samples
    assert tail_percentile(samples) == (90.0, 90)
    assert beyond(100, 90.0) == 10
    assert beyond(100, 95.0) == 5
    samples = list(range(1, 1001))         # 1000 samples
    assert tail_percentile(samples) == (99.0, 990)


def test_tail_is_none_when_no_percentile_leaves_ten_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20))) == (50.0, 9)
    assert tail_percentile(list(range(99)), (90.0,)) is None


def test_min_samples_for_fixed_percentiles():
    assert min_samples_for(99.0) == 1000
    assert min_samples_for(90.0) == 100
    with pytest.raises(ValueError):
        min_samples_for(100.0)   # nothing ever lies beyond the maximum


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([1, 2, 3, 4], 1) == 1


# -- failed_ratio --------------------------------------------------------------------


DONE = {"state": "done", "result": {"digest": "d"}}


def test_failed_ratio_counts_http_errors_states_and_timeouts():
    o = Outcomes()
    o.record_response(200, DONE)
    o.record_response(400, {"error": "bad spec"})
    o.record_response(429, {"error": "queue full"})
    o.record_response(503, {"error": "shutting down"})
    o.record_response(200, {"state": "running"})   # ?wait= ran out
    o.record_response(200, {"state": "failed", "error": "boom"})
    o.record_response(None, None)                   # client timeout
    assert (o.attempted, o.failed) == (7, 6)
    assert o.failed_ratio == pytest.approx(6 / 7)


def test_failed_ratio_counts_envelope_entries():
    o = Outcomes()
    o.record_envelope(200, {"jobs": [DONE, DONE, {"state": "queued"}]}, 3)
    o.record_envelope(207, {"jobs": [DONE, {"error": "queue full"}]}, 2)
    o.record_envelope(None, None, 4)                # timed-out envelope
    o.record_envelope(200, {"jobs": [DONE]}, 2)     # reply lost an entry
    assert (o.attempted, o.failed) == (11, 1 + 2 + 4 + 1)


# -- host-speed scaling and per-input-set checks -----------------------------------


def test_scale_brings_probe_median_to_reference():
    from perfbench.probe import REFERENCE_S, scale

    assert scale([REFERENCE_S] * 3) == pytest.approx(1.0)
    # A host twice as slow: its times are halved, whatever the outliers.
    assert scale([2 * REFERENCE_S, 2 * REFERENCE_S, 9.0]) == pytest.approx(0.5)


def test_outputs_are_compared_within_each_input_set():
    from perfbench.checks import _by_set

    outputs = [
        {"set": 0, "fingerprint": "a"},
        {"set": 1, "fingerprint": "b"},
        {"set": 0, "fingerprint": "a"},
        {"set": 1, "fingerprint": "c"},
    ]
    firsts, failures = _by_set(outputs, ("fingerprint",))
    assert {i: o["fingerprint"] for i, o in firsts.items()} == {0: "a", 1: "b"}
    assert failures == ["unit 3 fingerprint differs from the first unit of input set 1"]
