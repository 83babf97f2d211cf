"""Worker-side batch coalescing: queue policy, fallback, cache interplay.

Covers the batch-admission satellites: ``JobQueue.get_batch`` respects
lane priority and never mixes incompatible jobs, a poison spec in a
coalesced batch fails only its own job, ``POST /v1/jobs:batch`` serves
digests equal to individual submits, and — the regression the in-flight
cache demands — a duplicate submission arriving while its spec is inside
a running batch coalesces onto that batch instead of re-running or
reading a stale result.
"""

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import ScenarioSpec
from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.jobs import Job, JobResult, JobSpec, JobState, RetryPolicy
from repro.service.queue import JobQueue

WAIT = 30.0  # generous terminal-state wait; loaded CI machines are slow


def spec_for(name: str, **spec_kwargs) -> JobSpec:
    spec_kwargs.setdefault("lane", "batch")
    return JobSpec(
        scenario=ScenarioSpec(
            name=name, kind="barrier_loop", works=(1.0e9, 2.0e9), iterations=1
        ),
        **spec_kwargs,
    )


def stub_result(spec: JobSpec) -> JobResult:
    return JobResult(
        fingerprint=spec.fingerprint,
        digest=spec.fingerprint[:64],  # distinct per spec, stable per rerun
        label=spec.label,
        model=spec.model,
        total_time=1.0,
        imbalance_percent=0.0,
        events_processed=1,
        final_priorities=(4,),
        ranks=(),
        compute_seconds=0.001,
    )


def engine_key(job: Job) -> object:
    return (job.spec.engine,)


class TestQueueGetBatch:
    """The compatibility policy, tested at the queue itself."""

    def test_lane_priority_never_mixed_into_one_batch(self):
        queue = JobQueue(max_depth=16)
        batch_jobs = [Job(spec=spec_for(f"b{i}")) for i in range(3)]
        urgent = Job(spec=spec_for("urgent", lane="interactive"))
        for job in batch_jobs:
            queue.put(job)
        queue.put(urgent)
        # The interactive head drains first and alone — followers come
        # only from the head's own lane.
        first = queue.get_batch(8, engine_key)
        assert [j.id for j in first] == [urgent.id]
        second = queue.get_batch(8, engine_key)
        assert [j.id for j in second] == [j.id for j in batch_jobs]

    def test_incompatible_jobs_keep_fifo_position(self):
        queue = JobQueue(max_depth=16)
        a = Job(spec=spec_for("a", model="analytic"))
        c = Job(spec=spec_for("c", model="cycle"))
        b = Job(spec=spec_for("b", model="analytic"))
        for job in (a, c, b):
            queue.put(job)
        first = queue.get_batch(8, engine_key)
        assert [j.id for j in first] == [a.id, b.id]
        # The skipped cycle job is still next in line, not reordered.
        second = queue.get_batch(8, engine_key)
        assert [j.id for j in second] == [c.id]

    def test_none_key_head_is_returned_alone(self):
        queue = JobQueue(max_depth=16)
        jobs = [Job(spec=spec_for(f"j{i}")) for i in range(3)]
        for job in jobs:
            queue.put(job)
        got = queue.get_batch(8, lambda job: None)
        assert [j.id for j in got] == [jobs[0].id]
        assert queue.depth() == 2

    def test_max_n_caps_the_batch(self):
        queue = JobQueue(max_depth=16)
        jobs = [Job(spec=spec_for(f"j{i}")) for i in range(5)]
        for job in jobs:
            queue.put(job)
        got = queue.get_batch(2, engine_key)
        assert [j.id for j in got] == [jobs[0].id, jobs[1].id]
        assert queue.depth() == 3

    def test_closed_and_drained_returns_none(self):
        queue = JobQueue(max_depth=4)
        queue.close()
        assert queue.get_batch(8, engine_key) is None


class _Harness:
    """One-worker service with a gate job: while the gate's run blocks,
    submissions pile up in the queue and the *next* dequeue is a
    deterministic batch."""

    def __init__(self, **config_kwargs):
        self.calls = []          # fingerprints the runner completed
        self.batches = []        # spec-name lists, one per runner call
        self.gate_running = threading.Event()
        self.release_gate = threading.Event()
        self.batch_started = threading.Event()
        self.release_batch = threading.Event()
        self.fail_names = set()
        config_kwargs.setdefault("workers", 1)
        config_kwargs.setdefault(
            "retry", RetryPolicy(max_retries=0, base_s=0.01, max_backoff_s=0.05)
        )
        self.service = ScenarioService(
            ServiceConfig(**config_kwargs), runner=self._runner
        )

    def _runner(self, specs):
        names = [s.scenario.name for s in specs]
        self.batches.append(names)
        if "gate" in names:
            self.gate_running.set()
            assert self.release_gate.wait(WAIT)
        if len(specs) > 1:
            self.batch_started.set()
            assert self.release_batch.wait(WAIT)
        poison = self.fail_names.intersection(names)
        if poison:
            raise ValueError(f"poison spec {sorted(poison)[0]}")
        self.calls.extend(s.fingerprint for s in specs)
        return [stub_result(s) for s in specs]

    def open_gate_and_queue(self, specs):
        """Submit the gate, wait until it runs, queue ``specs`` behind it."""
        gate = self.service.submit(spec_for("gate"))
        assert self.gate_running.wait(WAIT)
        jobs = [self.service.submit(s) for s in specs]
        self.release_gate.set()
        return gate, jobs


class TestServiceBatching:
    def test_compatible_jobs_coalesce_into_one_batch_call(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            _, jobs = h.open_gate_and_queue(
                [spec_for(n) for n in ("a", "b", "c")]
            )
            for job in jobs:
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            assert h.batches == [["gate"], ["a", "b", "c"]]
            for job in jobs:
                assert job.source == "computed"
                assert job.result.fingerprint == job.spec.fingerprint
                assert job.attempts == 1

    def test_incompatible_engines_split_into_separate_runs(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            _, jobs = h.open_gate_and_queue([
                spec_for("a", model="analytic"),
                spec_for("c", model="cycle"),
                spec_for("b", model="analytic"),
            ])
            for job in jobs:
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            # One analytic batch; the cycle job ran as a batch of one.
            assert h.batches == [["gate"], ["a", "b"], ["c"]]

    def test_poison_spec_fails_only_its_own_job(self):
        h = _Harness()
        h.release_batch.set()
        h.fail_names = {"poison"}   # the coalesced attempt blows up
        with h.service as service:
            _, jobs = h.open_gate_and_queue(
                [spec_for(n) for n in ("a", "poison", "b")]
            )
            states = {
                job.spec.scenario.name: service.wait(job.id, timeout=WAIT).state
                for job in jobs
            }
            assert states == {
                "a": JobState.DONE,
                "poison": JobState.FAILED,
                "b": JobState.DONE,
            }
            # The failed batch fell back to one batch of one per job.
            assert h.batches == [
                ["gate"], ["a", "poison", "b"], ["a"], ["poison"], ["b"],
            ]
            by_name = {job.spec.scenario.name: job for job in jobs}
            assert "poison spec" in by_name["poison"].error
            # The failed batch attempt was refunded: survivors show one
            # consumed attempt (the per-job fallback), not two.
            assert by_name["a"].attempts == 1
            assert by_name["a"].result.fingerprint == jobs[0].spec.fingerprint

    def test_passed_deadline_drops_out_of_the_batch(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            gate = service.submit(spec_for("gate"))
            assert h.gate_running.wait(WAIT)
            a = service.submit(spec_for("a"))
            late = service.submit(spec_for("late", deadline_s=0.05))
            time.sleep(0.2)
            h.release_gate.set()
            for job in (gate, a, late):
                service.wait(job.id, timeout=WAIT)
            assert a.state is JobState.DONE
            assert late.state is JobState.FAILED
            assert "deadline" in late.error
            assert h.batches == [["gate"], ["a"]]

    def test_cancelled_leader_promotes_its_follower(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            gate = service.submit(spec_for("gate"))
            assert h.gate_running.wait(WAIT)
            a = service.submit(spec_for("a"))
            follower = service.submit(spec_for("a"))
            b = service.submit(spec_for("b"))
            assert service.cancel(a.id).state is JobState.CANCELLED
            h.release_gate.set()
            for job in (gate, follower, b):
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            # The cancelled leader's follower ran in its place, alone.
            assert follower.source == "computed"
            assert follower.attempts == 1
            assert a.state is JobState.CANCELLED
            assert h.batches == [["gate"], ["a"], ["b"]]

    def test_batch_telemetry_counts_batches_and_sizes(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            _, jobs = h.open_gate_and_queue(
                [spec_for(n) for n in ("a", "b", "c")]
            )
            for job in jobs:
                service.wait(job.id, timeout=WAIT)
            batches = service.registry.get("repro_service_batches_total")
            sizes = service.registry.get("repro_service_batch_size")
            assert batches.value == 1
            assert sizes.samples() == [3.0]

    def test_max_batch_size_one_disables_coalescing(self):
        h = _Harness(max_batch_size=1)
        with h.service as service:
            _, jobs = h.open_gate_and_queue([spec_for(n) for n in ("a", "b")])
            for job in jobs:
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            assert h.batches == [["gate"], ["a"], ["b"]]
            assert not h.batch_started.is_set()

    def test_max_batch_size_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ServiceConfig(max_batch_size=0)


class TestClaimDuringRunningBatch:
    """Regression: ``ResultCache.claim()`` vs an in-flight batch.

    A duplicate fingerprint submitted while its spec is *inside a
    running batch* must attach as a follower of that batch member — one
    execution total, and the follower gets the batch's (complete)
    result, never a stale or partial one.
    """

    def test_duplicate_coalesces_onto_running_batch(self):
        h = _Harness()
        with h.service as service:
            _, jobs = h.open_gate_and_queue([spec_for("a"), spec_for("b")])
            assert h.batch_started.wait(WAIT)
            # The batch holds a's flight open; this duplicate must ride it.
            dup = service.submit(spec_for("a"))
            assert dup.state is JobState.QUEUED and not dup.state.terminal
            h.release_batch.set()
            for job in jobs + [dup]:
                assert service.wait(job.id, timeout=WAIT).state is JobState.DONE
            assert dup.source == "coalesced"
            assert dup.result.digest == jobs[0].result.digest
            # One execution of a's fingerprint across every path.
            assert h.calls.count(jobs[0].spec.fingerprint) == 1
            # And a post-settle duplicate is a pure cache hit.
            late = service.submit(spec_for("a"))
            assert late.source == "cache"
            assert h.calls.count(jobs[0].spec.fingerprint) == 1

    def test_cache_hit_before_batch_never_requeues(self):
        h = _Harness()
        h.release_batch.set()
        with h.service as service:
            _, jobs = h.open_gate_and_queue([spec_for("a"), spec_for("b")])
            for job in jobs:
                service.wait(job.id, timeout=WAIT)
            depth_after = service.queue.depth()
            hit = service.submit(spec_for("a"))
            assert hit.source == "cache" and hit.state is JobState.DONE
            assert service.queue.depth() == depth_after
            assert h.batches == [["gate"], ["a", "b"]]
