"""The 1-node differential law: a single-node cluster IS the chip.

A topology spec with ``n_nodes=1`` must be byte-equivalent to its
single-chip twin — identical trace digest and total time under the
fluid engine, identical closed-form time under the analytic engine.
This is the oracle that keeps the cluster layer honest: any divergence
means the network model or per-node scheduling leaked into the
single-node path.
"""

import pytest

from repro.errors import ValidationError
from repro.oracle import check_cluster_equivalence
from repro.scenarios import ScenarioSpec


def scenario_for(kind: str, **overrides) -> ScenarioSpec:
    base = dict(
        name=f"eq-{kind}",
        kind=kind,
        works=(1.2e9, 3.1e9, 2.0e9, 2.6e9),
        iterations=2,
        seed=7,
    )
    if kind == "btmz":
        base["params"] = {"init_factor": 2.0}
    if kind == "siesta":
        base["params"] = {
            "init_works": (1e8, 2e8, 1.5e8, 3e8),
            "final_works": (2e8, 1e8, 2.5e8, 1e8),
            "jitter_sigma": 0.2,
            "rotate_prob": 0.3,
            "workload_seed": 11,
        }
    if kind == "distant_pairs":
        base["params"] = {"exchange_bytes": 1 << 20}
    base.update(overrides)
    return ScenarioSpec(**base)


class TestOneNodeLaw:
    def test_default_scenario_holds(self):
        check = check_cluster_equivalence(strict=True)
        assert check.ok
        assert check.cluster_digest == check.single_chip_digest
        assert check.cluster_time == check.single_chip_time

    @pytest.mark.parametrize(
        "kind", ["barrier_loop", "metbench", "btmz", "siesta", "distant_pairs"]
    )
    def test_every_kind_holds(self, kind):
        check = check_cluster_equivalence(scenario_for(kind), strict=True)
        assert check.ok

    @pytest.mark.parametrize(
        "priorities",
        [
            (),
            ((0, 6), (1, 2)),
            ((0, 4), (1, 6), (2, 4), (3, 5)),
        ],
    )
    def test_priority_shapes_hold(self, priorities):
        scenario = scenario_for("barrier_loop", priorities=priorities)
        assert check_cluster_equivalence(scenario, strict=True).ok

    @pytest.mark.parametrize("profile", ["hpc", "dft", "cfd"])
    def test_load_profiles_hold(self, profile):
        scenario = scenario_for("metbench", profile=profile)
        assert check_cluster_equivalence(scenario, strict=True).ok

    def test_explicit_mapping_holds(self):
        scenario = scenario_for(
            "barrier_loop", mapping={0: 0, 1: 2, 2: 1, 3: 3}
        )
        assert check_cluster_equivalence(scenario, strict=True).ok

    def test_topology_bearing_scenario_rejected(self):
        scenario = scenario_for("barrier_loop", topology={"n_nodes": 2})
        with pytest.raises(ValidationError, match="topology"):
            check_cluster_equivalence(scenario)
