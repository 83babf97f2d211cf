"""Network topology models."""

import pytest

from repro.cluster.spec import TopologySpec
from repro.cluster.topology import TwoLevelTree, UniformNetwork
from repro.errors import ConfigurationError, ValidationError
from repro.scenarios import ScenarioSpec


class TestUniform:
    def test_same_node_free(self):
        net = UniformNetwork()
        assert net.latency(3, 3) == 0.0
        assert net.bandwidth(3, 3) == float("inf")

    def test_symmetric(self):
        net = UniformNetwork()
        assert net.latency(0, 5) == net.latency(5, 0)
        assert net.bandwidth(0, 5) == net.bandwidth(5, 0)

    def test_negative_node_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformNetwork().latency(-1, 0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UniformNetwork(inter_bandwidth=0.0)


class TestTwoLevelTree:
    def test_switch_grouping(self):
        net = TwoLevelTree(nodes_per_switch=4)
        assert net.switch_of(0) == net.switch_of(3) == 0
        assert net.switch_of(4) == 1

    def test_near_vs_far_latency(self):
        net = TwoLevelTree(nodes_per_switch=2)
        assert net.latency(0, 1) == net.near_latency
        assert net.latency(0, 2) == net.far_latency
        assert net.latency(0, 1) < net.latency(0, 2)

    def test_far_bandwidth_lower(self):
        net = TwoLevelTree(nodes_per_switch=2)
        assert net.bandwidth(0, 2) < net.bandwidth(0, 1)

    def test_same_node(self):
        net = TwoLevelTree()
        assert net.latency(1, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TwoLevelTree(far_latency=1e-6, near_latency=2e-6)
        with pytest.raises(ConfigurationError):
            TwoLevelTree(nodes_per_switch=0)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 5), (3, 4)])
    def test_symmetric(self, pair):
        net = TwoLevelTree(nodes_per_switch=2)
        a, b = pair
        assert net.latency(a, b) == net.latency(b, a)
        assert net.bandwidth(a, b) == net.bandwidth(b, a)

    def test_switch_boundary(self):
        """Nodes k*nodes_per_switch-1 and k*nodes_per_switch straddle a
        switch boundary: adjacent ids, far link."""
        net = TwoLevelTree(nodes_per_switch=3)
        assert net.switch_of(2) == 0
        assert net.switch_of(3) == 1
        assert net.latency(2, 3) == net.far_latency
        assert net.latency(1, 2) == net.near_latency

    def test_negative_node_rejected(self):
        net = TwoLevelTree()
        with pytest.raises(ConfigurationError):
            net.latency(-1, -1)
        with pytest.raises(ConfigurationError):
            net.bandwidth(0, -3)
        with pytest.raises(ConfigurationError):
            net.switch_of(-1)


NETWORK_FIELDS = [
    (UniformNetwork, "uniform", "inter_latency"),
    (UniformNetwork, "uniform", "inter_bandwidth"),
    (TwoLevelTree, "two-level-tree", "near_latency"),
    (TwoLevelTree, "two-level-tree", "far_latency"),
    (TwoLevelTree, "two-level-tree", "near_bandwidth"),
    (TwoLevelTree, "two-level-tree", "far_bandwidth"),
]
NON_FINITE = [float("inf"), float("-inf"), float("nan")]


class TestNonFiniteParams:
    """Every latency/bandwidth field must be finite: an infinite value
    would otherwise reach a topology fingerprint as ``Infinity``."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("cls,kind,field", NETWORK_FIELDS)
    def test_construction_rejected(self, cls, kind, field, value):
        with pytest.raises(ConfigurationError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("cls,kind,field", NETWORK_FIELDS)
    def test_topology_doc_rejected(self, cls, kind, field, value):
        doc = {"n_nodes": 2, "network": kind, "params": {field: value}}
        with pytest.raises(ValidationError, match=field):
            TopologySpec.from_doc(doc)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("cls,kind,field", NETWORK_FIELDS)
    def test_scenario_doc_rejected(self, cls, kind, field, value):
        doc = ScenarioSpec(
            name="net", kind="barrier_loop", works=(1e9, 2e9), iterations=1,
            topology={"n_nodes": 2, "network": kind},
        ).to_doc()
        doc["topology"]["params"] = {field: value}
        with pytest.raises(ValidationError, match=field):
            ScenarioSpec.from_doc(doc)
