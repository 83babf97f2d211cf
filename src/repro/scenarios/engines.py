"""Execution engines: the pluggable backends a :class:`ScenarioSpec` runs on.

One spec, three physics paths — the same split the differential oracle
checks and the service serves, now behind a single interface:

``fluid``
    The default simulator: the discrete-event MPI runtime driven by the
    analytic throughput model. Produces a full trace (and therefore a
    digest).
``cycle``
    The same runtime driven by cycle-level pipeline measurements
    (:class:`~repro.smt.throughput.ThroughputTable`) — the decode
    mechanism's ground truth. Optionally shares a persisted table.
``analytic``
    A closed-form execution-time estimate that never runs an event loop:
    the bottleneck rank's total work over its steady-state chip-coupled
    IPC. No trace, no digest — a bound, not a simulation.

Every engine returns an :class:`ExecutionResult` carrying the spec's
fingerprint, the engine's name, the paper's two metrics where defined,
and the sha256 trace digest for trace-producing engines — the provenance
the golden-trace layer pins and the service caches.

Engines own their warm-state reuse: trace-producing engines keep
per-thread ``System`` caches (the model's memo cache warms across runs,
the cycle table accumulates measurements) keyed by everything that
changes construction, so the service's worker threads get the same
warm-path behaviour the old executor hand-rolled.

Batched execution: every engine also implements ``run_batch(specs)``,
with a correct default fallback (a loop over :meth:`Engine.run`) and
native strategies where amortisation pays:

``fluid``
    The default loop. Its batch speed-up over fresh engines comes from
    reuse alone: the loop runs every spec on the same per-thread warm
    ``System``, whose memo already holds the chip states earlier specs
    visited.
``analytic``
    The default loop. Like fluid, its batch speed-up is reuse alone:
    every spec queries the engine's one model, whose chip memo already
    holds the steady states earlier specs solved.
``cycle``
    Shares the persisted :class:`ThroughputTable` across the batch:
    loaded once per (seed, path) System, merged and saved once per
    batch instead of once per run.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cluster.spec import TopologySpec
from repro.cluster.system import ClusterSystem
from repro.errors import ConfigurationError, SimulationError
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import RunResult, RuntimeConfig
from repro.scenarios.spec import ScenarioSpec
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.chip import ChipConfig
from repro.smt.instructions import BASE_PROFILES
from repro.smt.throughput import ThroughputTable
from repro.telemetry import CacheStats, default_registry, register_cache_metrics
from repro.util.memo import LruCache
from repro.util.units import POWER5_FREQ_HZ

__all__ = [
    "ExecutionResult",
    "Engine",
    "FluidEngine",
    "CycleEngine",
    "AnalyticEngine",
    "trace_digest",
    "fast_cycle_table",
]


def _observe_run(engine: str, elapsed_s: float, nodes: int = 1) -> None:
    """Publish one engine run into the default registry.

    One event per whole run (the simulation inside is the expensive
    part), so this is always on; the event loop itself is untouched.
    ``nodes`` is the scenario's cluster size (1 for the default single
    chip), so ``/metrics`` distinguishes cluster from single-chip
    traffic.
    """
    reg = default_registry()
    labels = (engine, str(nodes))
    reg.counter(
        "repro_engine_runs_total",
        "Executed scenario runs, by engine and node count.",
        labelnames=("engine", "nodes"),
    ).labels(*labels).inc()
    reg.histogram(
        "repro_engine_run_seconds",
        "Wall seconds per engine run, by engine and node count.",
        labelnames=("engine", "nodes"),
    ).labels(*labels).observe(elapsed_s)


def _spec_nodes(spec: ScenarioSpec) -> int:
    """Node count a spec targets (1 = the default single chip)."""
    return spec.topology.n_nodes if spec.topology is not None else 1


def _system_config(topology: Optional[TopologySpec], **fields) -> SystemConfig:
    """The machine a spec's topology names (one chip without one)."""
    if topology is not None:
        fields.update(n_nodes=topology.n_nodes, network=topology.network_model())
    return SystemConfig(**fields)


def _new_system(config: SystemConfig) -> System:
    """A :class:`System` for ``config``, built as the (identical)
    :class:`ClusterSystem` on several nodes so per-layer traces can tell
    multi-node runs apart."""
    return (ClusterSystem if config.n_nodes > 1 else System)(config)


def _memo_stats(system: System) -> CacheStats:
    """The memo accounting of ``system``'s model (zeros if it keeps none)."""
    getter = getattr(system.model, "cache_stats", None)
    if callable(getter):
        return getter()
    return CacheStats(hits=0, misses=0, size=0, max_size=0)


def _observe_batch(engine: str, size: int, elapsed_s: float) -> None:
    """Publish one ``run_batch`` call into the default registry.

    Per-spec run counters/histograms still fire individually inside the
    batch (the scalar ``run`` path is reused per spec), so these batch
    instruments are additive: calls, sizes, and whole-batch wall time.
    """
    reg = default_registry()
    reg.counter(
        "repro_engine_batches_total",
        "run_batch calls, by engine.",
        labelnames=("engine",),
    ).labels(engine).inc()
    reg.histogram(
        "repro_engine_batch_size", "Specs per run_batch call.",
        labelnames=("engine",),
    ).labels(engine).observe(size)
    reg.histogram(
        "repro_engine_batch_seconds", "Wall seconds per run_batch call.",
        labelnames=("engine",),
    ).labels(engine).observe(elapsed_s)


#: Cores per node: every spec's machine is built from default chips.
_CORES_PER_NODE = ChipConfig().n_cores

#: Warm Systems each worker thread keeps per engine (least recently used
#: first out).
SYSTEM_CACHE_SIZE = 8


def _thread_systems(local: threading.local) -> LruCache:
    """The calling thread's bounded cache of warm Systems."""
    cache = getattr(local, "systems", None)
    if cache is None:
        cache = local.systems = LruCache(SYSTEM_CACHE_SIZE)
    return cache


def trace_digest(result: RunResult) -> str:
    """sha256 over the full-precision interval stream of a finished run.

    ``repr(float)`` round-trips exactly, so two runs share a digest iff
    their traces are bit-identical — the equality the determinism and
    incremental-rates guarantees promise.
    """
    h = hashlib.sha256()
    for tl in result.trace:
        for iv in tl.intervals:
            h.update(
                f"{tl.rank}:{iv.state.value}:{iv.start!r}:{iv.end!r}\n".encode()
            )
    return h.hexdigest()


def fast_cycle_table(seed: int = 0) -> ThroughputTable:
    """A cycle model with short measurement windows (oracle-speed).

    IPC from an 8k-cycle window is stable to a few percent for the
    bundled profiles — plenty under the cross-model tolerances, and an
    order of magnitude faster than the production windows. Share one
    table across a fuzz campaign so repeated (loads, priorities) keys
    are measured once.
    """
    return ThroughputTable(warmup_cycles=2_000, measure_cycles=8_000, seed=seed)


@dataclass(frozen=True, eq=False)
class ExecutionResult:
    """What every engine returns for one executed spec.

    ``run`` keeps the raw :class:`~repro.mpi.runtime.RunResult` of
    trace-producing engines (``None`` for closed-form ones). The run's
    summary (``digest``, ``final_priorities``, ``ranks``) is built from
    it the first time it is read and then cached, so a caller that
    reads only the two metrics never hashes the trace. Equality is
    equality of :meth:`to_doc`.
    """

    engine: str
    spec_fingerprint: str
    label: str
    total_time: float
    compute_seconds: float
    imbalance_percent: Optional[float] = None
    events_processed: int = 0
    run: Optional[RunResult] = field(default=None, repr=False)

    @classmethod
    def from_run(
        cls,
        engine: str,
        spec: ScenarioSpec,
        run: RunResult,
        compute_seconds: float,
    ) -> "ExecutionResult":
        return cls(
            engine=engine,
            spec_fingerprint=spec.fingerprint,
            label=run.label,
            total_time=run.total_time,
            compute_seconds=compute_seconds,
            imbalance_percent=run.imbalance_percent,
            events_processed=run.events_processed,
            run=run,
        )

    @cached_property
    def digest(self) -> Optional[str]:
        """The sha256 trace digest; ``None`` without a trace."""
        return None if self.run is None else trace_digest(self.run)

    @property
    def final_priorities(self) -> Tuple[int, ...]:
        return () if self.run is None else self.run.final_priorities

    @cached_property
    def ranks(self) -> Tuple[dict, ...]:
        """One ``{"rank", <fraction>...}`` doc per rank."""
        if self.run is None:
            return ()
        return tuple(
            {"rank": r.rank, **r.fractions()} for r in self.run.stats.ranks
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionResult):
            return NotImplemented
        return self.to_doc() == other.to_doc()

    def to_doc(self) -> dict:
        doc: dict = {
            "engine": self.engine,
            "spec_fingerprint": self.spec_fingerprint,
            "label": self.label,
            "total_time": self.total_time,
            "compute_seconds": self.compute_seconds,
            "events_processed": self.events_processed,
            "final_priorities": list(self.final_priorities),
            "ranks": [dict(r) for r in self.ranks],
        }
        if self.digest is not None:
            doc["digest"] = self.digest
        if self.imbalance_percent is not None:
            doc["imbalance_percent"] = self.imbalance_percent
        return doc


class Engine:
    """The execution interface every backend implements.

    ``run(spec)`` is the whole contract: deterministic for a given
    (spec, options) pair, returning an :class:`ExecutionResult`.
    ``options`` carries engine-specific knobs (declared in
    :attr:`option_names`; unknown keys raise) so callers — notably the
    conformance oracle — can iterate the registry generically while
    still steering individual backends.
    """

    name: str = ""
    description: str = ""
    #: Engine-specific ``options`` keys :meth:`run` accepts.
    option_names: Tuple[str, ...] = ()
    #: How :meth:`run_batch` amortises work: ``"loop"`` (the default
    #: loop over :meth:`run`, sharing whatever warm state the engine
    #: keeps) or ``"shared-table"`` (one table load/save per batch).
    #: Shown by ``repro engines list``.
    batch_strategy: str = "loop"
    #: The spec/search axes this engine's physics distinguishes.
    #: ``"priority"``: static hardware priorities change the outcome;
    #: ``"mapping"``: *which ranks share a core* changes the outcome
    #: (every backend models intra-core decode coupling, so both are on
    #: by default); ``"dynamic"``: runtime priority rewrites via the
    #: ``controllers`` hook. Shown by ``repro engines list`` and what
    #: the joint (mapping × priority) search relies on.
    axes: Tuple[str, ...] = ("priority", "mapping")

    def run(
        self,
        spec: ScenarioSpec,
        label: Optional[str] = None,
        system: Optional[System] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> ExecutionResult:
        raise NotImplementedError

    def run_batch(
        self,
        specs,
        *,
        labels: Optional[List[str]] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> List[ExecutionResult]:
        """Execute many specs; one :class:`ExecutionResult` per spec.

        The contract every backend must honour: results are index-
        aligned with ``specs``, and each is bit-identical to a scalar
        ``run(spec)`` with the same options (batching is an execution
        strategy, never a physics change). This default implementation
        simply loops :meth:`run`; backends override it where shared
        work can be amortised across the batch.
        """
        specs, labels = self._batch_args(specs, labels)
        t0 = time.perf_counter()
        results = [
            self.run(spec, label=label, options=options)
            for spec, label in zip(specs, labels)
        ]
        _observe_batch(self.name, len(specs), time.perf_counter() - t0)
        return results

    def _batch_args(
        self, specs, labels: Optional[List[str]]
    ) -> Tuple[List[ScenarioSpec], List[Optional[str]]]:
        """Normalise/validate the (specs, labels) pair of a batch call."""
        specs = list(specs)
        if labels is None:
            labels = [None] * len(specs)
        else:
            labels = list(labels)
            if len(labels) != len(specs):
                raise ConfigurationError(
                    f"run_batch got {len(specs)} specs but "
                    f"{len(labels)} labels"
                )
        return specs, labels

    def _opts(self, options: Optional[Mapping[str, object]]) -> dict:
        opts = dict(options or {})
        unknown = set(opts) - set(self.option_names)
        if unknown:
            raise ConfigurationError(
                f"engine {self.name!r} does not accept options "
                f"{sorted(unknown)} (allowed: {sorted(self.option_names)})"
            )
        return opts


class FluidEngine(Engine):
    """The default simulator: fluid MPI runtime + analytic model."""

    name = "fluid"
    description = ("discrete-event MPI runtime driven by the analytic "
                   "throughput model (the default simulator)")
    #: ``controllers`` is a zero-argument factory returning the runtime
    #: controllers for one run (fresh objects per run — controllers are
    #: stateful). A factory rather than instances so ``run_batch`` can
    #: give every spec its own controllers; this is how dynamic
    #: balancing policies ride the batch API.
    option_names = ("incremental_rates", "check_invariants", "controllers")
    axes = ("priority", "mapping", "dynamic", "topology")

    def __init__(self) -> None:
        self._local = threading.local()
        self._systems_lock = threading.Lock()
        #: Every thread's warm Systems, and the memo hits and misses of
        #: those evicted so far (so the pulled counters never go back).
        self._systems: List[System] = []
        self._retired = CacheStats(hits=0, misses=0, size=0, max_size=0)
        register_cache_metrics(
            default_registry(), "fluid_models", self._model_cache_stats
        )

    def _model_cache_stats(self) -> CacheStats:
        """Summed memo accounting across every System this engine has
        built (pull-based; evaluated only at collection time)."""
        with self._systems_lock:
            systems = list(self._systems)
            total = self._retired
        for system in systems:
            total = total + _memo_stats(system)
        return total

    def _system(
        self,
        incremental: bool,
        invariants: bool,
        topology: Optional[TopologySpec] = None,
    ):
        """Per-thread warm Systems: the shared analytic model's memo
        cache warms across runs on the same worker. The key holds the
        spec's (hashable) :class:`~repro.cluster.TopologySpec` — one warm
        machine per distinct shape per thread — but not its seed: this
        engine's machine has no seeded source (no tick, IRQ or noise, and
        the analytic model draws nothing), so every seed runs alike."""
        cache = _thread_systems(self._local)
        key = (incremental, invariants, topology)
        system = cache.get(key)
        if system is None:
            runtime = RuntimeConfig(
                incremental_rates=incremental,
                check_invariants=invariants,
            )
            system = _new_system(_system_config(topology, runtime=runtime))
            evicted = cache.put(key, system)
            with self._systems_lock:
                self._systems.append(system)
                if evicted is not None:
                    self._systems.remove(evicted)
                    stats = _memo_stats(evicted)
                    self._retired = self._retired + CacheStats(
                        hits=stats.hits, misses=stats.misses, size=0, max_size=0
                    )
        return system

    def run(
        self,
        spec: ScenarioSpec,
        label: Optional[str] = None,
        system: Optional[System] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> ExecutionResult:
        opts = self._opts(options)
        t0 = time.perf_counter()
        if system is None:
            system = self._system(
                bool(opts.get("incremental_rates", True)),
                bool(opts.get("check_invariants", False)),
                spec.topology,
            )
        controllers = None
        factory = opts.get("controllers")
        if factory is not None:
            if not callable(factory):
                raise ConfigurationError(
                    "controllers option must be a zero-arg factory "
                    "returning fresh controller objects"
                )
            controllers = list(factory())
        run = system.run(
            spec.programs(),
            mapping=spec.mapping_obj(),
            priorities=spec.priority_dict(),
            label=label if label is not None else f"scenario.{spec.name}",
            controllers=controllers,
        )
        elapsed = time.perf_counter() - t0
        _observe_run(self.name, elapsed, nodes=_spec_nodes(spec))
        return ExecutionResult.from_run(self.name, spec, run, elapsed)


class CycleEngine(Engine):
    """The fluid runtime driven by cycle-level pipeline measurements."""

    name = "cycle"
    description = ("MPI runtime driven by measured pipeline IPC "
                   "(ThroughputTable — the decode mechanism's ground truth)")
    option_names = ("table", "table_path")
    batch_strategy = "shared-table"
    axes = ("priority", "mapping", "topology")

    #: Serialises load/construct/save of shared on-disk tables across
    #: worker threads (merge-then-save: the table only ever grows).
    _table_io_lock = threading.Lock()

    def __init__(self) -> None:
        self._local = threading.local()

    def _system(
        self,
        seed: int,
        table_path: Optional[str],
        topology: Optional[TopologySpec] = None,
    ) -> System:
        """Per-thread warm Systems, one per (seed, table path, topology).
        An evicted System loses only measurements its table repeats: a
        ``ThroughputTable`` measures each key alike for a given seed, and
        runs with a table path persist theirs."""
        cache = _thread_systems(self._local)
        key = (seed, table_path, topology)
        system = cache.get(key)
        if system is None:
            config = _system_config(
                topology, model="cycle", seed=seed,
                throughput_table_path=table_path,
            )
            if table_path is not None:
                with self._table_io_lock:
                    system = _new_system(config)
            else:
                system = _new_system(config)
            cache.put(key, system)
        return system

    def run(
        self,
        spec: ScenarioSpec,
        label: Optional[str] = None,
        system: Optional[System] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> ExecutionResult:
        opts = self._opts(options)
        table: Optional[ThroughputTable] = opts.get("table")
        table_path: Optional[str] = opts.get("table_path")
        if table is not None and table_path is not None:
            raise ConfigurationError(
                "cycle engine takes table= or table_path=, not both"
            )
        t0 = time.perf_counter()
        persist = False
        if system is None:
            if table is not None:
                # Oracle fast path: a fresh system whose production
                # table is swapped for the (possibly shared,
                # short-window) measurement table. Never cached — the
                # override must not leak into later runs.
                system = _new_system(_system_config(
                    spec.topology, model="cycle", seed=spec.seed
                ))
                system.model = table
            else:
                system = self._system(spec.seed, table_path, spec.topology)
                persist = table_path is not None
        run = system.run(
            spec.programs(),
            mapping=spec.mapping_obj(),
            priorities=spec.priority_dict(),
            label=label if label is not None else f"scenario.{spec.name}",
        )
        if persist:
            # Merge-then-save: pick up entries concurrent workers
            # persisted since we loaded, so the shared table only grows.
            with self._table_io_lock:
                system.model.load(table_path)
                system.save_throughput_table()
        elapsed = time.perf_counter() - t0
        _observe_run(self.name, elapsed, nodes=_spec_nodes(spec))
        return ExecutionResult.from_run(self.name, spec, run, elapsed)

    def run_batch(
        self,
        specs,
        *,
        labels: Optional[List[str]] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> List[ExecutionResult]:
        """Batch execution with one table load/merge-save per batch.

        With ``table_path``, the scalar path merges and persists the
        shared on-disk table after *every* run; the batch path runs all
        specs against the (per-seed) warm Systems and persists each
        table once at the end. The table only ever grows and per-run
        measurement state is identical either way, so digests match the
        scalar path bit for bit.
        """
        specs, labels = self._batch_args(specs, labels)
        opts = self._opts(options)
        table: Optional[ThroughputTable] = opts.get("table")
        table_path: Optional[str] = opts.get("table_path")
        if table is not None and table_path is not None:
            raise ConfigurationError(
                "cycle engine takes table= or table_path=, not both"
            )
        t0 = time.perf_counter()
        if table_path is None:
            results = [
                self.run(spec, label=label, options=options)
                for spec, label in zip(specs, labels)
            ]
        else:
            systems = []
            results = []
            for spec, label in zip(specs, labels):
                system = self._system(spec.seed, table_path, spec.topology)
                if system not in systems:
                    systems.append(system)
                results.append(
                    self.run(spec, label=label, system=system,
                             options=options)
                )
            for system in systems:
                # Same merge-then-save the scalar path does per run,
                # amortised to once per batch and system.
                with self._table_io_lock:
                    system.model.load(table_path)
                    system.save_throughput_table()
        _observe_batch(self.name, len(specs), time.perf_counter() - t0)
        return results


class AnalyticEngine(Engine):
    """Closed-form execution-time estimate, no event loop.

    Steady state: every mapped context runs its profile at its static
    priority; the bottleneck rank's total work over its chip-coupled IPC
    bounds the run. Communication, init phases and spin-wait rate shifts
    are deliberately ignored — the conformance tolerance absorbs them.
    """

    name = "analytic"
    description = ("closed-form steady-state estimate (bottleneck rank's "
                   "work over its chip-coupled IPC; no event loop)")
    option_names = ("model",)
    #: Topology-aware: per-node chip solves keep the IPC coupling within
    #: each node's chip (communication is ignored either way, so the
    #: estimate stays the same compute-bound lower bound on a cluster).
    axes = ("priority", "mapping", "topology")

    def __init__(self) -> None:
        self._model = AnalyticThroughputModel()
        register_cache_metrics(
            default_registry(), "analytic_model", self._model.cache_stats
        )

    @staticmethod
    def _steady_ipcs(
        spec: ScenarioSpec, mapping, model: AnalyticThroughputModel
    ) -> Dict[int, Tuple[float, float]]:
        """Steady-state IPC pair per occupied global core.

        Every mapped context runs its profile at its static priority.
        The coupling domain is one node's chip, so each occupied node is
        solved as a full chip query (idle contexts at MEDIUM, exactly
        like the runtime's per-node core groups); ``global core = global
        cpu // 2`` indexes the result.
        """
        prios = spec.priority_dict() or {}
        profile = BASE_PROFILES[spec.profile]
        states: Dict[int, List[object]] = {}
        for rank in range(spec.n_ranks):
            cpu = mapping.cpu_of(rank)
            state = states.setdefault(cpu // 2, [None, None, 4, 4])
            state[cpu % 2] = profile
            state[2 + cpu % 2] = prios.get(rank, 4)
        idle = (None, None, 4, 4)
        ipcs: Dict[int, Tuple[float, float]] = {}
        for node in sorted({core // _CORES_PER_NODE for core in states}):
            first = node * _CORES_PER_NODE
            cores = range(first, first + _CORES_PER_NODE)
            solved = model.chip_ipc(
                tuple(tuple(states.get(c, idle)) for c in cores)
            )
            ipcs.update(zip(cores, solved))
        return ipcs

    def run(
        self,
        spec: ScenarioSpec,
        label: Optional[str] = None,
        system: Optional[System] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> ExecutionResult:
        if system is not None:
            raise ConfigurationError(
                "the analytic engine runs no System; drop the system= arg"
            )
        opts = self._opts(options)
        model: AnalyticThroughputModel = opts.get("model") or self._model
        t0 = time.perf_counter()
        mapping = spec.mapping_obj()
        ipcs = self._steady_ipcs(spec, mapping, model)
        # The closed form proper: bottleneck rank's work over its IPC.
        freq = POWER5_FREQ_HZ
        worst = 0.0
        for rank in range(spec.n_ranks):
            cpu = mapping.cpu_of(rank)
            ipc = ipcs[cpu // 2][cpu % 2]
            if ipc <= 0.0:
                raise SimulationError(
                    f"scenario {spec.name!r}: rank {rank} has zero "
                    "steady-state IPC"
                )
            total_work = spec.works[rank] * spec.iterations
            worst = max(worst, total_work / (ipc * freq))
        result = ExecutionResult(
            engine=self.name,
            spec_fingerprint=spec.fingerprint,
            label=label if label is not None else f"scenario.{spec.name}",
            total_time=worst,
            compute_seconds=time.perf_counter() - t0,
        )
        _observe_run(self.name, result.compute_seconds, nodes=_spec_nodes(spec))
        return result
