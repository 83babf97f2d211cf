"""Cluster serialisation: to_doc/from_doc round-trips.

The cluster layer's docs travel inside spec-v3 scenario documents and
the oracle's golden snapshots, so network models and topology specs must
round-trip through their canonical JSON byte-identically — same contract
the ScenarioSpec tests pin for the scenarios layer.
"""

import json

import pytest

from repro.cluster import (
    NETWORK_KINDS,
    TopologySpec,
    TwoLevelTree,
    UniformNetwork,
    network_from_doc,
)
from repro.errors import ValidationError
from repro.scenarios.engines import _system_config


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class TestNetworkRoundTrip:
    def test_uniform_round_trip(self):
        net = UniformNetwork(inter_latency=9e-6, inter_bandwidth=1e8)
        again = UniformNetwork.from_doc(net.to_doc())
        assert again == net
        assert canonical(again.to_doc()) == canonical(net.to_doc())

    def test_two_level_tree_round_trip(self):
        net = TwoLevelTree(
            nodes_per_switch=3,
            near_latency=5e-6,
            far_latency=2e-5,
            near_bandwidth=3e8,
            far_bandwidth=1e8,
        )
        again = TwoLevelTree.from_doc(net.to_doc())
        assert again == net
        assert canonical(again.to_doc()) == canonical(net.to_doc())

    @pytest.mark.parametrize("net", [UniformNetwork(), TwoLevelTree()])
    def test_dispatch_by_kind(self, net):
        assert net.to_doc()["kind"] in NETWORK_KINDS
        again = network_from_doc(net.to_doc())
        assert again == net
        assert type(again) is type(net)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="hypercube"):
            network_from_doc({"kind": "hypercube"})

    def test_json_wire_round_trip(self):
        net = TwoLevelTree(nodes_per_switch=2)
        wire = json.dumps(net.to_doc())
        assert network_from_doc(json.loads(wire)) == net


class TestTopologySpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec(n_nodes=2),
            TopologySpec(
                n_nodes=4,
                network="two-level-tree",
                params=(("nodes_per_switch", 2),),
            ),
        ],
    )
    def test_round_trip(self, spec):
        again = TopologySpec.from_doc(spec.to_doc())
        assert again == spec
        assert canonical(again.to_doc()) == canonical(spec.to_doc())

    def test_materialises_configured_models(self):
        spec = TopologySpec(
            n_nodes=4,
            network="two-level-tree",
            params=(("nodes_per_switch", 2),),
        )
        config = _system_config(spec)
        assert (config.n_nodes, config.network) == (4, spec.network_model())
        assert spec.network_model() == TwoLevelTree(nodes_per_switch=2)
