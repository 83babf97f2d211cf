"""System: the simulated IBM OpenPower 710 — or a cluster of them — as one object.

Wires a :class:`~repro.smt.chip.Power5Chip` of ``n_nodes`` nodes, a
kernel model (standard/patched), the privilege-checked priority
controller, optional kernel-event sources (ticks, interrupts, noise), a
throughput model and, on several nodes, a network model into a single
entry point::

    system = System(SystemConfig(kernel="patched"))
    result = system.run(
        programs,                   # one generator function per rank
        mapping=ProcessMapping.identity(4),
        priorities={0: 4, 1: 6, 2: 4, 3: 6},   # set via /proc before launch
    )

Each :meth:`System.run` builds a fresh machine (chip state, scheduler,
runtime) and fresh kernel-event sources, so a ``System`` can run many
experiments independently: a run's answer never depends on the runs
before it. What depends only on the mapping — its validation, each
rank's hardware slot, the core groups and, on several nodes, the
rank-pair cost table — is built once per mapping as a :class:`~repro.mpi.runtime.RunLayout` and
reused by every later run with that mapping.

On ``n_nodes > 1`` nodes one kernel image spans the machine (the
scheduler pins by global CPU) and each run derives its rank-pair
communication costs from node placement: intra-node pairs use the
runtime's shared-memory costs, inter-node pairs the network's latency
and bandwidth and :data:`NETWORK_EAGER_THRESHOLD`. A one-node machine has
no network, so its messages take the runtime's plain costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.cluster.topology import NetworkModel, UniformNetwork
from repro.errors import ConfigurationError
from repro.kernel.hmt import HmtController
from repro.kernel.interrupts import (
    InterruptSource,
    KernelEvent,
    TimerTickSource,
    merge_sources,
)
from repro.kernel.kernel import make_kernel
from repro.kernel.noise import NoiseConfig, make_noise_sources
from repro.kernel.scheduler import PinnedScheduler
from repro.machine.mapping import ProcessMapping
from repro.mpi.p2p import CommCosts
from repro.mpi.process import RankProgram
from repro.mpi.runtime import (
    COMM_COSTS, MpiRuntime, RunLayout, RunResult, RuntimeConfig,
)
from repro.smt.analytic import AnalyticModelConfig, AnalyticThroughputModel
from repro.smt.chip import ChipConfig, Power5Chip
from repro.smt.throughput import ThroughputTable
from repro.util.memo import LruCache
from repro.util.rng import RngStreams
from repro.util.validation import check_positive

__all__ = ["SystemConfig", "System"]

#: Eager/rendezvous switch for inter-node messages (network transports
#: buffer less than shared memory).
NETWORK_EAGER_THRESHOLD = 16384


@dataclass(frozen=True)
class SystemConfig:
    """Everything configurable about the simulated machine."""

    chip: ChipConfig = field(default_factory=ChipConfig)
    #: Nodes of ``chip`` each; node ``k`` owns global CPUs
    #: ``k * chip.n_cpus ..``.
    n_nodes: int = 1
    #: Latency/bandwidth between nodes (unused on one node).
    network: NetworkModel = field(default_factory=UniformNetwork)
    kernel: str = "patched"  # "standard" | "patched"
    model: str = "analytic"  # "analytic" | "cycle"
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    analytic: AnalyticModelConfig = field(default_factory=AnalyticModelConfig)
    #: Timer tick frequency; 0 disables ticks (default for table repro
    #: runs, where the patched kernel makes them irrelevant and the cost
    #: is negligible).
    tick_hz: float = 0.0
    #: Poisson device-interrupt rate routed to CPU0 (the "interrupt
    #: annoyance" model); 0 disables.
    irq_rate_hz: float = 0.0
    #: Daemon noise sources.
    noise: tuple = ()
    seed: int = 0
    #: Where the cycle model's measured throughput table is persisted.
    #: When set (model="cycle" only), measurements found there are loaded
    #: at construction and :meth:`System.save_throughput_table` writes
    #: new ones back, so repeated cycle-model experiments skip the
    #: 50k-cycle pipeline measurements entirely.
    throughput_table_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kernel not in ("standard", "patched"):
            raise ConfigurationError(f"kernel must be standard|patched, got {self.kernel!r}")
        if self.model not in ("analytic", "cycle"):
            raise ConfigurationError(f"model must be analytic|cycle, got {self.model!r}")
        if self.throughput_table_path is not None and self.model != "cycle":
            raise ConfigurationError(
                "throughput_table_path only applies to model='cycle' "
                f"(got model={self.model!r})"
            )
        check_positive("n_nodes", self.n_nodes)
        if self.tick_hz < 0 or self.irq_rate_hz < 0:
            raise ConfigurationError("tick_hz/irq_rate_hz must be >= 0")
        daemons = set()
        for cfg in self.noise:
            if not isinstance(cfg, NoiseConfig):
                raise ConfigurationError(f"noise entries must be NoiseConfig, got {cfg!r}")
            # A daemon's RNG stream is named by its (name, cpu): two with
            # the same pair would draw from one stream, not two.
            daemon = (cfg.name, cfg.cpu)
            if daemon in daemons:
                raise ConfigurationError(
                    f"two noise daemons named {cfg.name!r} on cpu {cfg.cpu}: "
                    "each (name, cpu) pair may appear once"
                )
            daemons.add(daemon)


class System:
    """Factory/runner for simulated machines."""

    #: Run layouts kept (least recently used first out): a joint search
    #: visits a few dozen mappings.
    LAYOUT_CACHE_SIZE = 64

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()
        self._layouts: LruCache[RunLayout] = LruCache(self.LAYOUT_CACHE_SIZE)
        # The model is shared across runs so its memo cache warms up.
        if self.config.model == "analytic":
            self.model = AnalyticThroughputModel(self.config.analytic)
        else:
            self.model = ThroughputTable(seed=self.config.seed)
            if self.config.throughput_table_path:
                self.model.load(self.config.throughput_table_path)

    def __getstate__(self) -> dict:
        # Search workers get a System without the layout cache: layouts
        # are cheap to rebuild, and a multi-node one holds a closure.
        state = dict(self.__dict__)
        state["_layouts"] = LruCache(self.LAYOUT_CACHE_SIZE)
        return state

    def save_throughput_table(self) -> Optional[int]:
        """Persist the cycle model's measured table to the configured path.

        No-op (returns ``None``) for the analytic model or when no
        ``throughput_table_path`` is configured; otherwise returns the
        number of entries written.
        """
        path = self.config.throughput_table_path
        if path and isinstance(self.model, ThroughputTable):
            return self.model.save(path)
        return None

    # -- machine assembly -------------------------------------------------------

    def build_machine(self):
        """Fresh (chip, hmt, scheduler, kernel) for one run."""
        chip = Power5Chip(self.config.chip, self.config.n_nodes)
        hmt = HmtController(chip)
        scheduler = PinnedScheduler(chip.n_cpus)
        kernel = make_kernel(self.config.kernel, hmt, scheduler)
        return chip, hmt, scheduler, kernel

    def _kernel_event_stream(self) -> Optional[Iterator[KernelEvent]]:
        """One run's kernel events, or ``None`` when no source is
        configured. The sources draw from a fresh ``RngStreams(seed)``,
        so a run's events never depend on the runs before it, and only
        as far as the run reads them."""
        cfg = self.config
        if not (cfg.tick_hz > 0 or cfg.irq_rate_hz > 0 or cfg.noise):
            return None
        streams = RngStreams(cfg.seed)
        sources: List[object] = []
        if cfg.tick_hz > 0:
            n_cpus = cfg.n_nodes * cfg.chip.n_cpus
            sources.append(TimerTickSource(list(range(n_cpus)), hz=cfg.tick_hz))
        if cfg.irq_rate_hz > 0:
            sources.append(
                InterruptSource(streams.get("irq.cpu0"), rate_hz=cfg.irq_rate_hz, cpu=0)
            )
        sources.extend(make_noise_sources(cfg.noise, streams))
        return merge_sources(sources)

    def run_layout(self, chip: Power5Chip, mapping: ProcessMapping) -> RunLayout:
        """The :class:`RunLayout` of ``mapping`` on this machine, built
        (and so validated) on the mapping's first run and cached; an
        invalid mapping raises every time, as nothing is cached for it."""
        key = mapping.rank_to_cpu
        layout = self._layouts.get(key)
        if layout is None:
            layout = RunLayout(chip, mapping.as_dict())
            if self.config.n_nodes > 1:
                layout.pair_costs = self._pair_costs(chip, mapping)
            self._layouts.put(key, layout)
        return layout

    # -- running ------------------------------------------------------------------

    def run(
        self,
        programs: Sequence[RankProgram],
        mapping: Optional[ProcessMapping] = None,
        priorities: Optional[Mapping[int, int]] = None,
        label: str = "",
        controllers: Optional[Sequence] = None,
    ) -> RunResult:
        """Run one experiment.

        Parameters
        ----------
        priorities:
            rank -> hardware priority, installed by the kernel at t=0
            right after launch — the paper's static balancing. The
            patched kernel writes each through
            ``/proc/<pid>/hmt_priority``; the standard kernel has only the
            user ``or``-nop, which ignores levels outside 2-4 (and resets
            the rest to MEDIUM at the first interrupt).
        """
        mapping = mapping or ProcessMapping.identity(len(programs))
        if mapping.n_ranks != len(programs):
            raise ConfigurationError(
                f"mapping covers {mapping.n_ranks} ranks but {len(programs)} programs given"
            )
        chip, hmt, _scheduler, kernel = self.build_machine()
        runtime = MpiRuntime(
            chip=chip,
            kernel=kernel,
            hmt=hmt,
            model=self.model,
            programs=programs,
            layout=self.run_layout(chip, mapping),
            config=self.config.runtime,
            kernel_events=self._kernel_event_stream(),
            label=label,
            priorities=priorities,
            controllers=controllers,
        )
        return runtime.run()

    def _pair_costs(self, chip: Power5Chip, mapping: ProcessMapping):
        """Resolve the run's rank-pair transfer parameters from node
        placement, as one rank x rank table built (and so validated) here.

        Intra-node pairs use the base shared-memory costs; every pair
        across the same two nodes shares one :class:`CommCosts` (network
        models are symmetric in their two nodes).
        """
        base = COMM_COSTS
        network = self.config.network
        rank_node = [chip.node_of_cpu(cpu) for _rank, cpu in mapping.rank_to_cpu]
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
                    eager_threshold=NETWORK_EAGER_THRESHOLD,
                    call_overhead=base.call_overhead,
                )
            return costs

        # Ranks on one node share their row.
        rows = {a: [link(a, b) for b in rank_node] for a in set(rank_node)}
        table = [rows[a] for a in rank_node]
        return lambda src, dst: table[src][dst]
