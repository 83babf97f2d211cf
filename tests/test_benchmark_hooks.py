"""The benchmark's tracer hooks still resolve against ``src/``.

``perfbench/layers.py`` wraps executor, queue, engine and model calls by
name; a refactor that renames or drops one of them breaks ``--trace 1``
without failing anything else. These tests install every hook, drive
one served job and one queue take through the wrapped calls, and check
that uninstalling restores the originals.
"""

import inspect

from perfbench.layers import install, layer_metrics
from perfbench.spans import Tracer
from repro.scenarios import ScenarioSpec
from repro.scenarios.engines import FluidEngine
from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.jobs import Job, JobSpec, JobState
from repro.service.queue import JobQueue

WAIT = 60.0

HOOKED = [
    (ScenarioService, "_process"),
    (ScenarioService, "_process_batch"),
    (ScenarioService, "_bounded_backoff"),
    (JobQueue, "get"),
    (JobQueue, "get_batch"),
    (FluidEngine, "run"),
    (FluidEngine, "run_batch"),
]


def small_spec(name: str) -> JobSpec:
    return JobSpec(
        scenario=ScenarioSpec(
            name=name, kind="barrier_loop", works=(1.0e8, 2.0e8), iterations=1
        )
    )


def test_install_wraps_and_uninstall_restores():
    before = [inspect.getattr_static(owner, attr) for owner, attr in HOOKED]
    tracer = Tracer()
    install(tracer)
    try:
        wrapped = [inspect.getattr_static(owner, attr) for owner, attr in HOOKED]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        tracer.uninstall()
    after = [inspect.getattr_static(owner, attr) for owner, attr in HOOKED]
    assert after == before


def test_traced_job_records_every_service_layer():
    tracer = Tracer()
    install(tracer)
    try:
        with ScenarioService(
            ServiceConfig(workers=1, default_timeout_s=None)
        ) as service:
            job = service.run(small_spec("hooked"), timeout=WAIT)
            assert job.state is JobState.DONE, job.error
        queue = JobQueue(max_depth=2)
        queued = Job(spec=small_spec("queued"))
        queue.put(queued)
        assert queue.get(timeout=0) is queued
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {
        "executor.submit",
        "executor.process_batch",
        "executor.process",
        "executor.execute",
        "queue.get",
        "queue.get_batch",
        "queue.wait",
        "engines.run_batch",
        "engines.run",
        "engines.digest",
    } <= names
    assert not [s for s in tracer.spans if s.attr == "error"]
    metrics = layer_metrics(tracer.spans)
    assert metrics["engines.runs"] == 1
    assert metrics["executor.batches"] == 1
