"""Runtime guards: config validation, runaway detection, controllers."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import RuntimeConfig


class TestRuntimeConfig:
    def test_wait_mode_validated(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(wait_mode="yield")

    def test_positive_limits(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(time_limit=0)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(max_events=0)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(epsilon=0)

    def test_unknown_spin_profile_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="nope"):
            RuntimeConfig(spin_profile="nope")
        with pytest.raises(ConfigurationError, match="nope"):
            RuntimeConfig(noise_profile="nope")


class TestRunawayGuards:
    def test_time_limit_enforced(self):
        system = System(SystemConfig(runtime=RuntimeConfig(time_limit=0.001)))

        def prog(mpi):
            yield mpi.compute(1e15, profile="hpc")  # ~days of simulated time

        with pytest.raises(SimulationError, match="time_limit"):
            system.run([prog], ProcessMapping.identity(1))

    def test_max_events_enforced(self):
        system = System(SystemConfig(runtime=RuntimeConfig(max_events=10)))

        def prog(mpi):
            for i in range(100):
                yield mpi.barrier()

        with pytest.raises(SimulationError, match="max_events"):
            system.run([prog, prog], ProcessMapping.identity(2))


class TestControllers:
    def test_controller_interval_validated(self, system):
        class BadController:
            interval = 0.0

            def on_tick(self, runtime, now):  # pragma: no cover
                pass

        def prog(mpi):
            yield mpi.compute(1e8, profile="hpc")

        with pytest.raises(ConfigurationError):
            system.run(
                [prog], ProcessMapping.identity(1), controllers=[BadController()]
            )

    def test_controller_tick_cadence(self, system):
        ticks = []

        class Probe:
            interval = 0.1

            def on_tick(self, runtime, now):
                ticks.append(now)

        def prog(mpi):
            yield mpi.compute(1.5e9, profile="hpc")  # ~0.4 s simulated

        system.run([prog], ProcessMapping.identity(1), controllers=[Probe()])
        assert len(ticks) >= 3
        for a, b in zip(ticks, ticks[1:]):
            assert b - a == pytest.approx(0.1, rel=1e-6)

    def test_two_controllers_coexist(self, system):
        seen = {"a": 0, "b": 0}

        class Probe:
            def __init__(self, key, interval):
                self.key = key
                self.interval = interval

            def on_tick(self, runtime, now):
                seen[self.key] += 1

        def prog(mpi):
            yield mpi.compute(1.5e9, profile="hpc")

        system.run(
            [prog],
            ProcessMapping.identity(1),
            controllers=[Probe("a", 0.1), Probe("b", 0.25)],
        )
        assert seen["a"] > seen["b"] > 0
