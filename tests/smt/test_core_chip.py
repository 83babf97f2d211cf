"""Power5Chip per-CPU state slots."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System
from repro.mpi.runtime import MpiRuntime, RunLayout
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.chip import ChipConfig, Power5Chip
from repro.smt.decode import ArbitrationMode, decode_allocation
from repro.smt.instructions import BASE_PROFILES
from repro.smt.priorities import HardwarePriority
from repro.workloads.generators import barrier_loop_programs


def _runtime(chip, hmt, kernel):
    return MpiRuntime(
        chip=chip,
        kernel=kernel,
        hmt=hmt,
        model=AnalyticThroughputModel(),
        programs=barrier_loop_programs([1e9] * 4, iterations=1),
        layout=RunLayout(chip, ProcessMapping.identity(4).as_dict()),
    )


class TestSmtCore:
    """One SMT core's two contexts: CPUs ``2i`` and ``2i + 1`` of the
    chip's per-CPU slots."""

    def test_defaults(self):
        chip = Power5Chip()
        assert chip.priorities[0:2] == [4, 4]
        assert chip.priority(0) is HardwarePriority.MEDIUM
        assert chip.loads[0:2] == [None, None]
        assert decode_allocation(*chip.priorities[0:2]).mode is ArbitrationMode.NORMAL

    def test_set_load(self):
        chip, hmt, _scheduler, kernel = System().build_machine()
        runtime = _runtime(chip, hmt, kernel)
        runtime._set_context_load(runtime._procs[0], "hpc")
        assert chip.loads[0].name == "hpc"
        runtime._set_context_load(runtime._procs[0], None)
        assert chip.loads[0] is None

    def test_bad_context_rejected(self):
        chip = Power5Chip()
        with pytest.raises(ConfigurationError):
            chip.store_priority(4, 4)
        with pytest.raises(ConfigurationError):
            chip.priority(-1)


class TestChipAddressing:
    def test_paper_layout(self):
        """CPUs (0,1) are core 0; (2,3) are core 1 — the paper's P1..P4."""
        chip = Power5Chip()
        assert (chip.n_cores, chip.n_cpus) == (2, 4)
        assert chip.core_groups == [[0, 1]]
        assert [chip.node_of_cpu(cpu) for cpu in range(4)] == [0, 0, 0, 0]

    def test_out_of_range(self):
        chip = Power5Chip()
        with pytest.raises(ConfigurationError):
            chip.priority(4)
        with pytest.raises(ConfigurationError):
            chip.store_priority(4, 6)
        with pytest.raises(ConfigurationError):
            chip.node_of_cpu(4)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChipConfig(n_cores=0)
        assert ChipConfig(n_cores=3).n_cpus == 6


class TestChipState:
    def test_priority_by_cpu(self):
        chip = Power5Chip()
        chip.store_priority(3, 6)
        assert int(chip.priority(3)) == 6
        assert chip.priorities == [4, 4, 4, 6]

    def test_load_by_cpu(self):
        """The runtime writes a rank's load at its CPU and reads core 1's
        contexts from CPUs 2 and 3."""
        chip, hmt, _scheduler, kernel = System().build_machine()
        runtime = _runtime(chip, hmt, kernel)
        runtime._set_context_load(runtime._procs[2], "dft")
        assert chip.loads == [None, None, BASE_PROFILES["dft"], None]
        runtime._recompute_rates()
        assert runtime._core_names == [
            (None, None, 4, 4), ("dft", None, 4, 4),
        ]
