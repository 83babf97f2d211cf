"""The run summary is built on first read, and reads the same as an eager one.

``RunResult.stats`` is computed the first time it is read, and
``RunResult.imbalance_percent`` is taken straight from the timelines'
SYNC totals without building it. Over the operation-pin cases, the
runtime property strategies and runs of zero work:

* ``imbalance_percent`` is bit-equal to an eager
  ``compute_stats(result.trace).imbalance_percent``;
* ``result.stats`` equals an eager ``compute_stats``;
* the trace digest is the same whether the summary is read before or
  after it.
"""

import struct

import pytest
from hypothesis import given

from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import compute_stats
from repro.scenarios.engines import trace_digest
from repro.workloads.generators import barrier_loop_programs
from tests.integration.test_property_runtime import (
    common_settings,
    prio_strategy,
    works_strategy,
)
from tests.mpi.test_op_pin import CASES

_SYSTEM = System(SystemConfig())


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _check(run_once):
    """Run twice: read the summary after the digest, then before it."""
    late = run_once()
    digest_first = trace_digest(late)
    assert "stats" not in vars(late), "the summary was built before any read"
    eager = compute_stats(late.trace)
    assert _bits(late.imbalance_percent) == _bits(eager.imbalance_percent)
    assert "stats" not in vars(late), "imbalance_percent built the summary"
    assert late.stats == eager
    assert late.stats is late.stats

    early = run_once()
    assert early.stats == eager
    assert _bits(early.imbalance_percent) == _bits(eager.imbalance_percent)
    assert trace_digest(early) == digest_first


@pytest.mark.parametrize("name", sorted(CASES))
def test_operation_cases(name):
    config, body = CASES[name]
    system = System(config)
    _check(lambda: system.run([body] * 4, ProcessMapping.identity(4)))


@given(works=works_strategy, prios=prio_strategy)
@common_settings
def test_generated_barrier_loops(works, prios):
    _check(
        lambda: _SYSTEM.run(
            barrier_loop_programs(works, iterations=2),
            ProcessMapping.identity(4),
            priorities=dict(enumerate(prios)),
        )
    )


def test_zero_work_computes():
    def body(mpi):
        yield mpi.compute(0.0, profile="hpc")
        yield mpi.barrier()

    _check(lambda: _SYSTEM.run([body] * 4, ProcessMapping.identity(4)))


def test_zero_length_run():
    def idle(mpi):
        return
        yield

    def run_once():
        return _SYSTEM.run([idle] * 4, ProcessMapping.identity(4))

    run = run_once()
    assert run.total_time == 0.0
    assert run.imbalance_percent == 0.0
    _check(run_once)
