"""System assembly and configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.kernel import PatchedLinux, StandardLinux
from repro.kernel.noise import NoiseConfig
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.throughput import ThroughputTable


def trivial(mpi):
    yield mpi.compute(1e7, profile="hpc")


class TestConfig:
    def test_defaults(self):
        cfg = SystemConfig()
        assert cfg.kernel == "patched"
        assert cfg.model == "analytic"
        assert cfg.tick_hz == 0.0

    def test_invalid_kernel(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(kernel="bsd")

    def test_invalid_model(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(model="oracle")

    def test_noise_entries_checked(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(noise=("loud",))

    def test_two_daemons_with_one_name_on_one_cpu_rejected(self):
        daemon = NoiseConfig("d", cpu=1, mean_period=0.05, mean_burst=0.01)
        twin = NoiseConfig("d", cpu=1, mean_period=0.2, mean_burst=0.001)
        with pytest.raises(ConfigurationError, match=r"'d' on cpu 1"):
            SystemConfig(noise=(daemon, twin))
        with pytest.raises(ConfigurationError, match=r"'d' on cpu 1"):
            SystemConfig(noise=(daemon, daemon))

    def test_daemons_differing_in_name_or_cpu_accepted(self):
        daemon = NoiseConfig("d", cpu=1, mean_period=0.05, mean_burst=0.01)
        other_cpu = NoiseConfig("d", cpu=2, mean_period=0.05, mean_burst=0.01)
        other_name = NoiseConfig("e", cpu=1, mean_period=0.05, mean_burst=0.01)
        assert len(SystemConfig(noise=(daemon, other_cpu, other_name)).noise) == 3


class TestAssembly:
    def test_kernel_kind(self):
        assert isinstance(System(SystemConfig()).build_machine()[3], PatchedLinux)
        assert isinstance(
            System(SystemConfig(kernel="standard")).build_machine()[3], StandardLinux
        )

    def test_model_kind(self):
        assert isinstance(System(SystemConfig()).model, AnalyticThroughputModel)
        assert isinstance(System(SystemConfig(model="cycle")).model, ThroughputTable)

    def test_fresh_machine_per_run(self, system):
        r1 = system.run([trivial], ProcessMapping.identity(1))
        r2 = system.run([trivial], ProcessMapping.identity(1))
        # Same machine state at start -> identical outcomes.
        assert r1.total_time == pytest.approx(r2.total_time)

    def test_runs_are_independent_of_prior_priorities(self, system):
        def prog(mpi):
            yield mpi.compute(1e8, profile="hpc")
            yield mpi.barrier()

        base = system.run([prog, prog]).total_time
        system.run([prog, prog], priorities={0: 6, 1: 3})
        again = system.run([prog, prog]).total_time
        assert again == pytest.approx(base)


class TestCycleModelEndToEnd:
    def test_cycle_backed_system_runs(self):
        system = System(SystemConfig(model="cycle"))
        # Shrink measurement windows for test speed.
        system.model = ThroughputTable(warmup_cycles=1000, measure_cycles=5000)

        def make(work):
            def prog(mpi):
                yield mpi.compute(work, profile="hpc")
                yield mpi.barrier()

            return prog

        base = system.run([make(1e8), make(4e8)])
        bal = system.run([make(1e8), make(4e8)], priorities={0: 4, 1: 6})
        assert bal.total_time < base.total_time
