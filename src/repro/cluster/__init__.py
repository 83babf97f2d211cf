"""Multi-node machines: several POWER5 chips behind a network model.

The paper runs on one OpenPower 710 but motivates everything with
MareNostrum (10 240 CPUs): imbalance wastes a *cluster*. This subpackage
scales the simulation to many nodes:

* :mod:`repro.cluster.topology` — network models (uniform, two-level
  switch tree), providing per-node-pair latency/bandwidth. Distant
  neighbours are one of the paper's extrinsic imbalance causes.
* :mod:`repro.cluster.system` — :class:`ClusterSystem`, the plain
  :class:`repro.machine.system.System` the engines build for multi-node
  specs (a cluster is a ``System`` whose config has ``n_nodes > 1``:
  intra-node messages use shared-memory costs, inter-node messages the
  topology's). Import it from its module; this package does not, since
  ``repro.machine.system`` imports the network models from here.
* :mod:`repro.cluster.spec` — :class:`TopologySpec`, the frozen,
  strictly-serialisable cluster shape a v3
  :class:`~repro.scenarios.ScenarioSpec` may carry.
"""

from repro.cluster.topology import (
    NETWORK_KINDS,
    NetworkModel,
    TwoLevelTree,
    UniformNetwork,
    network_from_doc,
)
from repro.cluster.spec import TopologySpec

__all__ = [
    "NETWORK_KINDS",
    "NetworkModel",
    "UniformNetwork",
    "TwoLevelTree",
    "network_from_doc",
    "TopologySpec",
]
