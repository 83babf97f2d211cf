"""Kernel events (ticks, interrupts, OS noise) as one lazy stream per run.

Every run draws its tick, IRQ and noise events from sources built for
that run alone, from a fresh ``RngStreams(seed)``, and only as far as the
run reads them. So a run's answer does not depend on the runs before it,
a search compares every candidate under the same noise, and a deadlock
is reported when it happens, not after the kernel's events run out.
"""

import functools
import re
import time

import pytest

from repro.core.search import exhaustive_priority_search
from repro.errors import DeadlockError
from repro.kernel.noise import NoiseConfig
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.scenarios.engines import trace_digest
from repro.workloads.generators import barrier_loop_programs

WORKS = [1e9, 0.45e9, 1e9, 0.45e9]
BOOST = {0: 5, 1: 4, 2: 4, 3: 4}
DAEMONS = (
    NoiseConfig("collector", cpu=0, mean_period=0.05, mean_burst=0.004),
    NoiseConfig("flusher", cpu=2, mean_period=0.08, mean_burst=0.002),
)

#: name -> (config, priorities)
CONFIGS = {
    "irq-100": (SystemConfig(irq_rate_hz=100.0), BOOST),
    "irq-4k": (SystemConfig(irq_rate_hz=4000.0), BOOST),
    "standard-ticks-250": (
        SystemConfig(kernel="standard", tick_hz=250.0),
        {0: 4, 1: 3, 2: 4, 3: 3},
    ),
    "two-nodes-ticks-1k": (SystemConfig(n_nodes=2, tick_hz=1000.0), BOOST),
    "two-daemons": (SystemConfig(noise=DAEMONS), BOOST),
    "ticks-irq-daemon": (
        SystemConfig(tick_hz=250.0, irq_rate_hz=500.0, noise=DAEMONS[:1]),
        BOOST,
    ),
}

#: name -> (trace digest, repr(total_time), events_processed) of the
#: first run on a new System, recorded when every source still drew its
#: events up to a fixed 4000 s horizon before the run began. "irq-4k"
#: and "two-nodes-ticks-1k" were first recorded on the lazy streams and
#: cross-checked against a horizon-era run with a 5 s horizon (these runs
#: end before 1 s); a full 4000 s horizon-era run of this file, which for
#: "irq-4k" drew 16 M arrivals up front, matched all six.
PINS = {
    "irq-100": (
        "db0a6e1141dc598ecb189a72e6f96917a7196ad6f5b582d5e05004d0fd183508",
        "0.5807114476265569", 114,
    ),
    "irq-4k": (
        "c0803edd5f9e6a4168bc81175223908845bb833f505a100040f2e07765e919ae",
        "0.5807029128194839", 4455,
    ),
    "standard-ticks-250": (
        "ddaa8b14992ea3e7982c16da2b75d8978488121edf9d0c5d1d2fce2ae8c6254c",
        "0.5814816845216356", 1174,
    ),
    "two-nodes-ticks-1k": (
        "3fc5af531683c1bac0cfd3a7cc4b48b6c99d7db51380a88ae1d845a94f2ee97c",
        "0.5785529554188176", 6954,
    ),
    "two-daemons": (
        "0f723b631bfa9e0118e8116eb8fa58e507ba37140ce32533b16a1d4a0ce2f507",
        "0.5914147905205811", 30,
    ),
    "ticks-irq-daemon": (
        "2ae471b0ed96abfc8b1f98ef0376acb695e6083fff383005e837946f99b81e0b",
        "0.5943103713532625", 1793,
    ),
}


def _mapping(config: SystemConfig) -> ProcessMapping:
    if config.n_nodes == 2:
        return ProcessMapping.from_dict({0: 0, 1: 1, 2: 4, 3: 5})
    return ProcessMapping.identity(4)


def _run(system: System, priorities):
    return system.run(
        barrier_loop_programs(WORKS, iterations=2),
        _mapping(system.config),
        priorities=priorities,
    )


@pytest.mark.parametrize("name", sorted(PINS))
def test_first_run_matches_its_pin(name):
    config, priorities = CONFIGS[name]
    run = _run(System(config), priorities)
    assert (trace_digest(run), repr(run.total_time), run.events_processed) == PINS[name]


@pytest.mark.parametrize("name", ["irq-100", "two-daemons", "ticks-irq-daemon"])
def test_a_second_run_equals_a_fresh_systems_run(name):
    config, priorities = CONFIGS[name]
    system = System(config)
    first = _run(system, priorities)
    second = _run(system, priorities)
    fresh = _run(System(config), priorities)
    assert trace_digest(first) == trace_digest(second) == trace_digest(fresh)
    assert second.total_time == fresh.total_time


def test_serial_and_pooled_noisy_searches_rank_identically():
    config = SystemConfig(noise=DAEMONS[:1])
    factory = functools.partial(barrier_loop_programs, WORKS, iterations=2)

    def ranked(workers):
        result = exhaustive_priority_search(
            System(config), factory, ProcessMapping.identity(4),
            levels=(4, 5), max_gap=1, workers=workers,
        )
        return result, [(a.priority_dict, t, imb) for a, t, imb in result.entries]

    serial, serial_rows = ranked(1)
    pooled, pooled_rows = ranked(2)
    assert pooled.stats.workers == 2
    assert len(serial_rows) == 16
    assert pooled_rows == serial_rows


def _crossed_recv(mpi):
    """Compute, then receive from the other rank, which does the same."""
    yield mpi.compute(1e8, profile="hpc")
    yield mpi.recv(source=1 - mpi.rank)


def _deadlock_time(config: SystemConfig) -> float:
    with pytest.raises(DeadlockError) as err:
        System(config).run(
            [_crossed_recv, _crossed_recv], ProcessMapping.from_dict({0: 0, 1: 2})
        )
    return float(re.search(r"t=([0-9.]+)s", str(err.value)).group(1))


@pytest.mark.parametrize(
    "config",
    [
        SystemConfig(tick_hz=250.0),
        SystemConfig(noise=(NoiseConfig("d", cpu=1, mean_period=0.002, mean_burst=1e-4),)),
    ],
    ids=["ticks-250", "noise-daemon"],
)
def test_deadlock_is_reported_at_the_deadlock_instant(config):
    quiet = _deadlock_time(SystemConfig())
    started = time.perf_counter()
    at = _deadlock_time(config)
    assert time.perf_counter() - started < 1.0
    # Ticks steal a few microseconds of handler time; the daemon runs on
    # an idle CPU and steals none.
    assert at == pytest.approx(quiet, abs=1e-3)
