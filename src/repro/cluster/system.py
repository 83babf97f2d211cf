"""ClusterSystem: the multi-node counterpart of :class:`repro.machine.system.System`.

Builds a :class:`~repro.cluster.machine.ClusterMachine`, one kernel image
spanning all nodes (each node runs the same patched/standard kernel; the
scheduler pins by global CPU), and derives per-rank-pair communication
costs from the node placement and the network model, as one table per
run: intra-node pairs use shared-memory parameters, inter-node pairs the
topology's latency and bandwidth (and a network-appropriate rendezvous
threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.cluster.machine import ClusterConfig, ClusterMachine
from repro.cluster.topology import NetworkModel, UniformNetwork, network_from_doc
from repro.errors import ConfigurationError, ValidationError
from repro.kernel.hmt import HmtController
from repro.kernel.kernel import make_kernel
from repro.kernel.scheduler import PinnedScheduler
from repro.machine.mapping import ProcessMapping
from repro.mpi.p2p import CommCosts
from repro.mpi.process import RankProgram
from repro.mpi.runtime import MpiRuntime, RunResult, RuntimeConfig
from repro.smt.analytic import AnalyticModelConfig, AnalyticThroughputModel
from repro.smt.instructions import LoadProfile
from repro.util.fingerprint import fingerprint_doc

__all__ = ["ClusterSystemConfig", "ClusterSystem"]

_SYSTEM_FIELDS = ("cluster", "network", "kernel", "network_eager_threshold")


@dataclass(frozen=True)
class ClusterSystemConfig:
    """Everything configurable about the simulated cluster."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    network: NetworkModel = field(default_factory=UniformNetwork)
    kernel: str = "patched"
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    analytic: AnalyticModelConfig = field(default_factory=AnalyticModelConfig)
    #: Eager/rendezvous switch for inter-node messages (network transports
    #: buffer less than shared memory).
    network_eager_threshold: int = 16384

    def __post_init__(self) -> None:
        if self.kernel not in ("standard", "patched"):
            raise ConfigurationError(
                f"kernel must be standard|patched, got {self.kernel!r}"
            )
        if self.network_eager_threshold < 0:
            raise ConfigurationError("network_eager_threshold must be >= 0")

    # -- wire format -----------------------------------------------------------
    #
    # The runtime/analytic model parameters are process-level tuning, not
    # identity (single-chip ``SystemConfig`` has no wire format either);
    # the document captures the machine-shape fields that distinguish one
    # cluster from another, so a cluster run can be fingerprinted/cached.

    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe document (round-trips through :meth:`from_doc`)."""
        return {
            "cluster": self.cluster.to_doc(),
            "network": self.network.to_doc(),
            "kernel": self.kernel,
            "network_eager_threshold": self.network_eager_threshold,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ClusterSystemConfig":
        """Strict inverse of :meth:`to_doc` — unknown fields are rejected."""
        if not isinstance(doc, Mapping):
            raise ValidationError(
                f"cluster system document must be a mapping, "
                f"got {type(doc).__name__}"
            )
        unknown = sorted(set(doc) - set(_SYSTEM_FIELDS))
        if unknown:
            raise ValidationError(f"unknown cluster system fields: {unknown}")
        kernel = doc.get("kernel", "patched")
        if not isinstance(kernel, str):
            raise ValidationError(
                f"cluster system field 'kernel' must be a string, "
                f"got {type(kernel).__name__}"
            )
        eager = doc.get("network_eager_threshold", 16384)
        if isinstance(eager, bool) or not isinstance(eager, int):
            raise ValidationError(
                "cluster system field 'network_eager_threshold' must be an "
                f"int, got {type(eager).__name__}"
            )
        cluster = (
            ClusterConfig.from_doc(doc["cluster"])
            if "cluster" in doc
            else ClusterConfig()
        )
        network = (
            network_from_doc(doc["network"])
            if "network" in doc
            else UniformNetwork()
        )
        try:
            return cls(
                cluster=cluster,
                network=network,
                kernel=kernel,
                network_eager_threshold=eager,
            )
        except ConfigurationError as exc:
            raise ValidationError(f"invalid cluster system document: {exc}") from exc

    @property
    def fingerprint(self) -> str:
        """Canonical content hash of :meth:`to_doc`."""
        return fingerprint_doc(self.to_doc())


class ClusterSystem:
    """Factory/runner for multi-node machines."""

    def __init__(self, config: Optional[ClusterSystemConfig] = None) -> None:
        self.config = config or ClusterSystemConfig()
        self.model = AnalyticThroughputModel(self.config.analytic)

    def build_machine(self):
        machine = ClusterMachine(self.config.cluster)
        hmt = HmtController(machine)
        scheduler = PinnedScheduler(machine.config.n_cpus)
        kernel = make_kernel(self.config.kernel, hmt, scheduler)
        return machine, hmt, scheduler, kernel

    def _pair_costs(self, machine: ClusterMachine, mapping: ProcessMapping):
        """Resolve the run's rank-pair transfer parameters from node
        placement, as one rank x rank table built (and so validated) here.

        Intra-node pairs use the base shared-memory costs; every pair
        across the same two nodes shares one :class:`CommCosts` (network
        models are symmetric in their two nodes).
        """
        base = self.config.runtime.comm_costs
        network = self.config.network
        rank_node = [machine.node_of_cpu(cpu) for _rank, cpu in mapping.rank_to_cpu]
        links: Dict[tuple, CommCosts] = {}

        def link(a: int, b: int) -> CommCosts:
            if a == b:
                return base
            pair = (a, b) if a < b else (b, a)
            costs = links.get(pair)
            if costs is None:
                costs = links[pair] = CommCosts(
                    latency=base.latency + network.latency(*pair),
                    bandwidth=min(base.bandwidth, network.bandwidth(*pair)),
                    eager_threshold=self.config.network_eager_threshold,
                    call_overhead=base.call_overhead,
                )
            return costs

        # Ranks on one node share their row.
        rows = {a: [link(a, b) for b in rank_node] for a in set(rank_node)}
        table = [rows[a] for a in rank_node]
        return lambda src, dst: table[src][dst]

    def run(
        self,
        programs: Sequence[RankProgram],
        mapping: Optional[ProcessMapping] = None,
        priorities: Optional[Mapping[int, int]] = None,
        profiles: Optional[Mapping[str, LoadProfile]] = None,
        label: str = "",
        controllers: Optional[Sequence] = None,
    ) -> RunResult:
        """Run one experiment on the cluster.

        ``mapping`` maps ranks to *global* CPUs (node k owns CPUs
        ``4k..4k+3`` for default chips); defaults to packing ranks onto
        nodes in order.
        """
        mapping = mapping or ProcessMapping.identity(len(programs))
        if mapping.n_ranks != len(programs):
            raise ConfigurationError(
                f"mapping covers {mapping.n_ranks} ranks but "
                f"{len(programs)} programs given"
            )
        machine, hmt, scheduler, kernel = self.build_machine()

        on_start = None
        if priorities:
            wanted = dict(priorities)

            def on_start(runtime: MpiRuntime) -> None:
                for pid, prio in sorted(wanted.items()):
                    if kernel.has_hmt_procfs:
                        kernel.procfs.set_priority_of_pid(pid, prio, time=0.0)
                    else:
                        from repro.kernel.hmt import Actor

                        hmt.try_set_priority(
                            scheduler.cpu_of(pid), prio, Actor.USER, time=0.0
                        )

        runtime = MpiRuntime(
            chip=machine,
            kernel=kernel,
            hmt=hmt,
            model=self.model,
            programs=programs,
            mapping=mapping.as_dict(),
            profiles=profiles,
            config=self.config.runtime,
            label=label,
            on_start=on_start,
            controllers=controllers,
            pair_costs=self._pair_costs(machine, mapping),
        )
        return runtime.run()
