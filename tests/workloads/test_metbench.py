"""MetBench workload model."""

import pytest

from repro.errors import WorkloadError
from repro.machine.mapping import ProcessMapping
from repro.workloads.loads import METBENCH_LOADS, get_load
from repro.workloads.metbench import MetBenchConfig, metbench_programs


class TestLoads:
    def test_catalogue_covers_paper_resources(self):
        """'each one stressing a different processor resource (the FPU,
        the L2 cache, the branch predictor, etc)'."""
        names = set(METBENCH_LOADS)
        assert {"cpu_fpu", "cache_l2", "branch_mix"} <= names

    def test_lookup(self):
        assert get_load("cpu_fpu").profile.fpu_fraction > 0.3

    def test_unknown(self):
        with pytest.raises(WorkloadError):
            get_load("gpu")


class TestConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            MetBenchConfig(works=[], iterations=3)
        with pytest.raises(WorkloadError):
            MetBenchConfig(works=[1e9], iterations=0)
        with pytest.raises(WorkloadError):
            MetBenchConfig(works=[1e9], worker_loads=["hpc", "fpu"])

    def test_infinite_work_rejected(self):
        with pytest.raises(WorkloadError, match="must be finite"):
            MetBenchConfig(works=[float("inf"), 1e9], iterations=1)

    def test_n_ranks(self):
        assert MetBenchConfig(works=[1, 2, 3]).n_ranks == 3
        assert MetBenchConfig(works=[1, 2, 3], explicit_master=True).n_ranks == 4

    def test_per_worker_loads(self):
        cfg = MetBenchConfig(works=[1, 2], worker_loads=["fpu", "l2"])
        assert cfg.load_of_worker(0) == "fpu"
        assert cfg.load_of_worker(1) == "l2"


class TestExecution:
    def test_imbalance_from_unequal_works(self, system):
        programs = metbench_programs([1e9, 4e9, 1e9, 4e9], iterations=3)
        result = system.run(programs, ProcessMapping.identity(4))
        assert result.imbalance_percent > 50.0
        assert result.stats.rank_stats(1).sync_fraction < 0.1

    def test_balanced_works_balanced_run(self, system):
        programs = metbench_programs([2e9] * 4, iterations=3)
        result = system.run(programs, ProcessMapping.identity(4))
        assert result.imbalance_percent < 8.0

    def test_explicit_master_variant(self, system):
        programs = metbench_programs(
            [2e9, 2e9], iterations=2, explicit_master=True
        )
        assert len(programs) == 3
        result = system.run(programs, ProcessMapping.identity(3))
        # The master does almost no work and waits most of the time.
        assert result.stats.rank_stats(0).sync_fraction > 0.5

    def test_iterations_scale_runtime(self, system):
        t3 = system.run(
            metbench_programs([2e9, 2e9], iterations=3), ProcessMapping.identity(2)
        ).total_time
        t6 = system.run(
            metbench_programs([2e9, 2e9], iterations=6), ProcessMapping.identity(2)
        ).total_time
        assert t6 == pytest.approx(2 * t3, rel=0.1)

    def test_needs_works_or_config(self):
        with pytest.raises(WorkloadError):
            metbench_programs()

    def test_priority_balancing_improves(self, system, small_metbench_programs):
        """The paper's MetBench case C in miniature (shared small config:
        ranks 1 and 3 carry the heavy zones, so favouring them helps)."""
        base = system.run(small_metbench_programs(), ProcessMapping.identity(4))
        bal = system.run(
            small_metbench_programs(),
            ProcessMapping.identity(4),
            priorities={0: 4, 1: 6, 2: 4, 3: 6},
        )
        assert bal.total_time < base.total_time
        assert bal.imbalance_percent < base.imbalance_percent
