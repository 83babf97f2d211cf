"""Synthetic imbalance generators."""

import pytest

from repro.errors import WorkloadError
from repro.machine.mapping import ProcessMapping
from repro.util.rng import RngStreams
from repro.workloads.generators import (
    barrier_loop_programs,
    linear_ramp_works,
    one_heavy_works,
    random_works,
)


class TestGenerators:
    def test_one_heavy(self):
        works = one_heavy_works(4, base=1e9, heavy_factor=3.0, heavy_rank=2)
        assert works[2] == 3e9
        assert works[0] == works[1] == works[3] == 1e9

    def test_one_heavy_validation(self):
        with pytest.raises(WorkloadError):
            one_heavy_works(4, base=1e9, heavy_factor=2.0, heavy_rank=7)
        with pytest.raises(WorkloadError):
            one_heavy_works(0, base=1e9, heavy_factor=2.0)

    def test_linear_ramp(self):
        works = linear_ramp_works(3, base=1e9, slope=1.0)
        assert works == [1e9, 2e9, 3e9]

    def test_linear_ramp_validation(self):
        with pytest.raises(WorkloadError):
            linear_ramp_works(3, base=-1.0, slope=1.0)

    def test_random_works_deterministic(self):
        a = random_works(4, 1e9, 0.5, RngStreams(3).get("w"))
        b = random_works(4, 1e9, 0.5, RngStreams(3).get("w"))
        assert a == b

    def test_random_works_positive(self):
        works = random_works(16, 1e9, 1.0, RngStreams(0).get("w"))
        assert all(w > 0 for w in works)


class TestBarrierLoop:
    def test_program_count(self):
        progs = barrier_loop_programs([1e9, 2e9], iterations=2)
        assert len(progs) == 2

    def test_runs_and_balances_as_expected(self, system):
        progs = barrier_loop_programs([1e9, 1e9], iterations=2)
        result = system.run(progs, ProcessMapping.identity(2))
        assert result.imbalance_percent < 5.0

    def test_zero_iterations_rejected(self):
        with pytest.raises(WorkloadError):
            barrier_loop_programs([1e9], iterations=0)

    def test_infinite_work_rejected(self):
        # Rejected at the workload boundary, before the runtime could
        # stall on a rank that never finishes.
        with pytest.raises(WorkloadError, match="must be finite"):
            barrier_loop_programs(
                [float("inf"), 1e9, 1e9, 1e9], iterations=1
            )
