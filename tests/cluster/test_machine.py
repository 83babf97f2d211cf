"""A multi-node machine: one flat Power5Chip of several nodes."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.hmt import Actor, HmtController
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import MpiRuntime, RunLayout
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.chip import Power5Chip
from repro.smt.instructions import BASE_PROFILES
from repro.workloads.generators import barrier_loop_programs


@pytest.fixture()
def machine():
    return Power5Chip(n_nodes=3)


def node_cpus(machine, node):
    """Global CPUs of ``node``, read off its core group."""
    return [2 * core + t for core in machine.core_groups[node] for t in (0, 1)]


class TestAddressing:
    def test_global_cpu_layout(self, machine):
        assert machine.n_cpus == 12
        assert machine.node_of_cpu(0) == 0
        assert machine.node_of_cpu(4) == 1
        assert machine.node_of_cpu(11) == 2
        assert node_cpus(machine, 1).index(5) == 1  # node-local cpu 1

    def test_out_of_range(self, machine):
        with pytest.raises(ConfigurationError):
            machine.node_of_cpu(12)

    @pytest.mark.parametrize("cpu", [-1, 12])
    @pytest.mark.parametrize(
        "call",
        [
            lambda m, cpu: m.priority(cpu),
            lambda m, cpu: HmtController(m).set_priority(cpu, 6, Actor.OS),
            lambda m, cpu: m.store_priority(cpu, 6),
        ],
        ids=["priority", "set_priority", "store_priority"],
    )
    def test_state_calls_reject_out_of_range_cpus(self, machine, call, cpu):
        # -1 is the case a bare list index would silently accept.
        with pytest.raises(ConfigurationError):
            call(machine, cpu)
        for node in range(len(machine.core_groups)):
            for cpu_ in node_cpus(machine, node):
                assert int(machine.priority(cpu_)) == 4
        assert machine.priorities == [4] * 12
        assert machine.loads == [None] * 12

    def test_core_groups_per_chip(self, machine):
        assert machine.core_groups == [[0, 1], [2, 3], [4, 5]]
        assert machine.n_cores == 6


class TestStateRouting:
    def test_priority_routes_to_right_chip(self, machine):
        machine.store_priority(5, 6)  # node 1, local cpu 1 -> core 0 thread 1
        assert int(machine.priority(5)) == 6
        node1, node0 = node_cpus(machine, 1), node_cpus(machine, 0)
        assert int(machine.priority(node1[1])) == 6
        assert machine.priorities[2 * machine.core_groups[1][0] + 1] == 6
        assert int(machine.priority(node0[1])) == 4  # untouched

    def test_load_routes_to_right_chip(self):
        machine, hmt, _scheduler, kernel = System(SystemConfig(n_nodes=3)).build_machine()
        runtime = MpiRuntime(
            chip=machine,
            kernel=kernel,
            hmt=hmt,
            model=AnalyticThroughputModel(),
            programs=barrier_loop_programs([1e9] * 12, iterations=1),
            layout=RunLayout(machine, ProcessMapping.identity(12).as_dict()),
        )
        runtime._set_context_load(runtime._procs[8], "hpc")
        runtime._recompute_rates()
        first_core = machine.core_groups[2][0]
        assert runtime._core_names[first_core][0] == "hpc"
        assert machine.loads[node_cpus(machine, 2)[0]] is BASE_PROFILES["hpc"]
        assert machine.loads[8].name == "hpc"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Power5Chip(n_nodes=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(n_nodes=0)
