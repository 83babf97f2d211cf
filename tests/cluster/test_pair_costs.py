"""The per-run rank-pair cost table of a multi-node run.

:meth:`System._pair_costs` resolves every rank pair once, when a
run starts: intra-node pairs get the runtime's shared-memory costs
object itself, and all pairs across the same two nodes share one
network :class:`~repro.mpi.p2p.CommCosts`, constructed (and so
validated) while the table is built rather than per message.
"""

import pytest

import repro.machine.system as machine_system
from repro.cluster.topology import NetworkModel
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.p2p import CommCosts
from repro.workloads.generators import barrier_loop_programs

#: Four ranks over two 4-CPU nodes: ranks 0 and 2 on node 0, 1 and 3 on node 1.
MAPPING = ProcessMapping.from_dict({0: 0, 1: 4, 2: 2, 3: 6})
NODE = {0: 0, 1: 1, 2: 0, 3: 1}


def _system(network=None):
    kwargs = {} if network is None else {"network": network}
    return System(SystemConfig(n_nodes=2, **kwargs))


@pytest.fixture()
def built(monkeypatch):
    """Every CommCosts the System constructs from here on."""
    made = []

    class CountingCosts(CommCosts):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(machine_system, "CommCosts", CountingCosts)
    return made


@pytest.fixture()
def traced_run(monkeypatch, built):
    """Run the 4-rank mapping once; return (system, the run's pair-cost
    resolver)."""
    system = _system()
    resolvers = []
    original = System._pair_costs

    def capture(self, machine, mapping):
        resolvers.append(original(self, machine, mapping))
        return resolvers[-1]

    monkeypatch.setattr(System, "_pair_costs", capture)
    result = system.run(barrier_loop_programs([1e9] * 4, iterations=2), MAPPING)
    assert result.total_time > 0
    (costs,) = resolvers
    return system, costs


class TestPairCostTable:
    def test_same_node_pairs_return_the_base_costs(self, traced_run):
        system, costs = traced_run
        base = system.config.runtime.comm_costs
        for src in NODE:
            for dst in NODE:
                if NODE[src] == NODE[dst]:
                    assert costs(src, dst) is base

    def test_pairs_across_two_nodes_share_one_object(self, traced_run):
        system, costs = traced_run
        cross = {
            id(costs(src, dst))
            for src in NODE
            for dst in NODE
            if NODE[src] != NODE[dst]
        }
        assert len(cross) == 1
        link = costs(0, 1)
        base = system.config.runtime.comm_costs
        network = system.config.network
        assert link.latency == base.latency + network.latency(0, 1)
        assert link.bandwidth == min(base.bandwidth, network.bandwidth(0, 1))
        assert link.eager_threshold == system.config.network_eager_threshold

    def test_one_construction_per_distinct_node_pair(self, traced_run, built):
        assert len(built) == 1  # nodes {0, 1}: one distinct pair per run

    def test_single_node_run_constructs_nothing(self, built):
        _system().run(
            barrier_loop_programs([1e9] * 2, iterations=2),
            ProcessMapping.from_dict({0: 0, 1: 2}),
        )
        assert built == []


class _BrokenNetwork(NetworkModel):
    kind = "uniform"

    def __init__(self, latency, bandwidth):
        self._latency = latency
        self._bandwidth = bandwidth

    def latency(self, node_a, node_b):
        return 0.0 if node_a == node_b else self._latency

    def bandwidth(self, node_a, node_b):
        return float("inf") if node_a == node_b else self._bandwidth

    def to_doc(self):
        return {"kind": self.kind}


class TestInvalidNetworkRaisesAtTableBuild:
    @pytest.mark.parametrize(
        "latency, bandwidth",
        [(-1.0, 250e6), (float("nan"), 250e6), (6e-6, 0.0), (6e-6, -5.0)],
    )
    def test_invalid_link_raises_before_any_rank_runs(self, latency, bandwidth):
        system = _system(_BrokenNetwork(latency, bandwidth))
        machine = system.build_machine()[0]
        with pytest.raises(ConfigurationError):
            system._pair_costs(machine, MAPPING)
        started = []

        def prog(mpi):
            started.append(mpi.rank)
            yield mpi.barrier()

        with pytest.raises(ConfigurationError):
            system.run([prog] * 4, MAPPING)
        assert started == []
