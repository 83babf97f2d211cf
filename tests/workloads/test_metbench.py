"""MetBench workload model."""

import pytest

from repro.errors import WorkloadError
from repro.machine.mapping import ProcessMapping
from repro.smt.instructions import BASE_PROFILES
from repro.workloads.metbench import metbench_programs


class TestLoads:
    """MetBench's ``load`` names a profile of the base catalogue."""

    def test_catalogue_covers_paper_resources(self):
        """'each one stressing a different processor resource (the FPU,
        the L2 cache, the branch predictor, etc)'."""
        names = set(BASE_PROFILES)
        assert {"fpu", "l2", "branch"} <= names

    def test_lookup(self):
        assert BASE_PROFILES["fpu"].fpu_fraction > 0.3


class TestConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            metbench_programs([], iterations=3)
        with pytest.raises(WorkloadError):
            metbench_programs([1e9], iterations=0)

    def test_infinite_work_rejected(self):
        with pytest.raises(WorkloadError, match="must be finite"):
            metbench_programs([float("inf"), 1e9], iterations=1)

    def test_n_ranks(self):
        assert len(metbench_programs([1, 2, 3])) == 3


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

    def test_iterations_scale_runtime(self, system):
        t3 = system.run(
            metbench_programs([2e9, 2e9], iterations=3), ProcessMapping.identity(2)
        ).total_time
        t6 = system.run(
            metbench_programs([2e9, 2e9], iterations=6), ProcessMapping.identity(2)
        ).total_time
        assert t6 == pytest.approx(2 * t3, rel=0.1)

    def test_needs_works_or_config(self):
        with pytest.raises(WorkloadError, match="empty work vector"):
            metbench_programs(())

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
