"""The fluid-rate discrete-event MPI runtime.

Each rank program advances through *work* (instructions) at a rate set by
the SMT throughput model for the current machine state — co-runner loads
and hardware priorities per core. Between state changes rates are
constant, so the next interesting instant is computed exactly:

* the earliest compute completion ``now + remaining/rate``, or
* the earliest scheduled event (message transfer completion, collective
  release, kernel interrupt/noise, noise end).

At each instant the runtime fires due events, advances the affected rank
generators (which may post new operations, change priorities, block or
finish), re-derives per-context rates from the chip state, and repeats.
Everything is deterministic: ties are broken by sequence numbers, and all
stochastic inputs (noise arrival times) come from named RNG streams.

Waiting semantics (``RuntimeConfig.wait_mode``):

``"spin"`` (default, MPI-CH behaviour)
    A blocked rank runs the spin-loop profile on its hardware context at
    its current priority — it *keeps consuming decode slots and shared
    resources*, slowing its core sibling. This is the effect the paper's
    balancing exploits.
``"block"``
    A blocked rank vacates its context (load ``None``), as a
    sleep-waiting MPI would. Provided for the ablation benchmark.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import (
    AbstractSet, Dict, Generator, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    MappingError,
    SimulationError,
)
from repro.kernel.hmt import HmtController
from repro.kernel.interrupts import KernelEvent
from repro.kernel.kernel import KernelModel
from repro.mpi.collectives import CollectiveManager
from repro.mpi.communicator import Communicator
from repro.mpi.p2p import CommCosts, MessageEngine
from repro.mpi.process import (
    CollectiveOp,
    ComputeOp,
    P2pOp,
    RankApi,
    RankProgram,
    SetPriorityOp,
    WaitOp,
)
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.smt.chip import Power5Chip
from repro.smt.instructions import BASE_PROFILES, SPIN_LOAD, LoadProfile
from repro.telemetry import default_registry as _telemetry_registry
from repro.telemetry import enabled as _telemetry_enabled
from repro.trace.events import RankState
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.trace import Trace
from repro.util.units import POWER5_FREQ_HZ
from repro.util.validation import check_positive

__all__ = ["RuntimeConfig", "RunResult", "RunLayout", "MpiRuntime"]


#: What a context runs while executing kernel handlers/daemons.
NOISE_LOAD = BASE_PROFILES["int"]
#: Intra-node (shared-memory) message costs.
COMM_COSTS = CommCosts()
#: Temporal tolerance for simultaneity (simulated seconds).
EPSILON = 1e-9


@dataclass(frozen=True)
class RuntimeConfig:
    """Behavioural knobs of the runtime."""

    wait_mode: str = "spin"
    #: Hard wall on simulated seconds, to catch runaway programs.
    time_limit: float = 1e5
    #: Hard wall on processed events.
    max_events: int = 2_000_000
    #: Per-core-group dirty tracking: a state change on one chip only
    #: re-solves that chip's IPC. Disable to force a full re-solve on
    #: every state change (equivalence testing / ablation — results are
    #: identical either way).
    incremental_rates: bool = True
    #: Attach the oracle layer's :class:`~repro.oracle.checker.RuntimeChecker`
    #: to this run: every rate re-solve and time advance is checked live
    #: (finite non-negative rates, monotone time) and the finished result
    #: is swept against the decode/trace/run invariants. Off by default;
    #: when off the event loop pays a single ``is None`` test per
    #: iteration.
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.wait_mode not in ("spin", "block"):
            raise ConfigurationError(
                f"wait_mode must be 'spin' or 'block', got {self.wait_mode!r}"
            )
        check_positive("time_limit", self.time_limit)
        check_positive("max_events", self.max_events)


@dataclass
class RunResult:
    """Everything an experiment needs from one simulated run."""

    label: str
    trace: Trace
    total_time: float
    events_processed: int
    priority_history_len: int
    final_priorities: Tuple[int, ...]

    @cached_property
    def stats(self) -> TraceStats:
        """The run summary, built on first read (a search candidate reads
        only :attr:`imbalance_percent`)."""
        return compute_stats(self.trace)

    @property
    def imbalance_percent(self) -> float:
        """``stats.imbalance_percent`` without the summary: the largest
        SYNC total over the span, the same floats :func:`compute_stats`
        divides (division by a positive span keeps their order)."""
        span = self.trace.total_time
        if span <= 0:
            return 0.0
        sync = RankState.SYNC
        waits = [tl.totals.get(sync, 0.0) for tl in self.trace]
        return max(waits, default=0.0) / span * 100.0


class _PState:
    READY = "ready"
    COMPUTING = "computing"
    BLOCKED = "blocked"
    NOISE = "noise"
    DONE = "done"


#: The requests a rank waiting on none (at a collective, or running)
#: awaits; shared, as only a rank blocked on requests gets its own set.
_NO_REQUESTS: AbstractSet[int] = frozenset()


class _Proc:
    """Runtime-internal per-rank state."""

    __slots__ = (
        "rank",
        "cpu",
        "core_idx",
        "thread",
        "gen",
        "state",
        "remaining",
        "rate",
        "profile_name",
        "trace_state",
        "timeline",
        "compute_trace_state",
        "resume_value",
        "awaiting",
        "single_wait",
        "blocked_trace_state",
        "noise_resume",
        "released",
        "group",
    )

    def __init__(
        self,
        rank: int,
        slot: Tuple[int, int, int],
        gen: Generator[object, object, None],
        timeline,
        group: int,
    ) -> None:
        self.rank = rank
        self.cpu, self.core_idx, self.thread = slot
        #: The core group a change to its context's load dirties.
        self.group = group
        self.gen = gen
        self.state = _PState.READY
        self.remaining = 0.0
        self.rate = 0.0  # instructions/second while computing
        self.profile_name: Optional[str] = None
        self.trace_state: Optional[RankState] = None
        self.timeline = timeline  # the rank's RankTimeline
        #: Which useful state (COMPUTE/INIT/FINAL) the current compute is.
        self.compute_trace_state: RankState = RankState.COMPUTE
        self.resume_value: object = None
        #: Requests this rank is blocked on (empty + blocked = collective).
        self.awaiting: AbstractSet[int] = _NO_REQUESTS
        #: The single request whose status becomes the resume value.
        self.single_wait: Optional[Request] = None
        self.blocked_trace_state: RankState = RankState.SYNC
        #: What to restore after a noise preemption ends.
        self.noise_resume: Optional[str] = None
        #: Unblock arrived while this rank was preempted by noise.
        self.released: bool = False


class RunLayout:
    """What a run needs from (machine, mapping) alone, validated once.

    A :class:`~repro.machine.system.System` builds one per mapping the
    first time the mapping runs and hands it to every later run with
    that mapping, so a search's candidates that share a mapping share
    its layout. The layout is read-only once built.

    Parameters
    ----------
    chip:
        Any chip of the machine the runs use: only its shape (CPU count,
        core groups) is read, never its state.
    mapping:
        rank -> logical CPU; must cover ranks ``0..n-1`` with distinct
        on-chip CPUs, else :class:`~repro.errors.MappingError`.

    ``mapping`` is also the run's pin table: the kernel pins each rank
    (its pid) to its CPU from it at launch.

    ``pair_costs`` starts as ``None`` (every rank pair takes the runtime's
    :data:`COMM_COSTS`); a multi-node System sets it to the mapping's
    rank-pair resolver ``(src, dst) -> CommCosts`` before the first run.
    """

    __slots__ = ("mapping", "slots", "n_cpus", "core_groups", "group_spans",
                 "group_of_core", "world", "apis", "pair_costs")

    def __init__(self, chip: Power5Chip, mapping: Mapping[int, int]) -> None:
        ranks = sorted(mapping)
        if ranks != list(range(len(ranks))):
            raise MappingError(
                f"mapping must cover ranks 0..{len(ranks) - 1}, got {ranks}"
            )
        cpus = [mapping[rank] for rank in ranks]
        if len(set(cpus)) != len(cpus):
            raise MappingError(f"mapping reuses a cpu: {dict(mapping)}")
        for cpu in cpus:
            if not 0 <= cpu < chip.n_cpus:
                raise MappingError(f"cpu {cpu} out of range for this chip")
        #: The validated rank -> CPU mapping (a read-only view).
        self.mapping: Mapping[int, int] = MappingProxyType(dict(zip(ranks, cpus)))
        #: Per rank, its ``(cpu, core, thread)`` hardware slot.
        self.slots: Tuple[Tuple[int, int, int], ...] = tuple(
            (cpu, cpu // 2, cpu % 2) for cpu in cpus
        )
        self.n_cpus = chip.n_cpus
        # The machine groups its cores per node so the model's shared-L2
        # coupling stays within a chip; one node is a single group.
        self.core_groups: List[List[int]] = [list(g) for g in chip.core_groups]
        #: Each group's cores as a slice of the chip's core list (a node
        #: owns a contiguous run of cores).
        self.group_spans: List[slice] = [slice(g[0], g[-1] + 1) for g in self.core_groups]
        self.group_of_core: Dict[int, int] = {
            core: gi for gi, group in enumerate(self.core_groups) for core in group
        }
        #: ``MPI_COMM_WORLD`` over the mapping's ranks (immutable, so runs
        #: share it; each run keeps its own collective state).
        self.world = Communicator.world(len(ranks))
        #: Per rank, the (stateless) :class:`RankApi` its program gets.
        self.apis: Tuple[RankApi, ...] = tuple(
            RankApi(rank, len(ranks)) for rank in ranks
        )
        self.pair_costs = None

    @property
    def n_ranks(self) -> int:
        return len(self.slots)


class MpiRuntime:
    """Coordinator of rank programs over the simulated machine.

    Parameters
    ----------
    chip, kernel, hmt:
        The machine (see :mod:`repro.machine.system` for convenient
        wiring).
    model:
        A throughput model with ``chip_ipc(core_states)`` —
        :class:`~repro.smt.analytic.AnalyticThroughputModel` or
        :class:`~repro.smt.throughput.ThroughputTable`.
    programs:
        One generator function per rank.
    layout:
        The :class:`RunLayout` of this machine and rank -> CPU mapping;
        it must cover exactly the programs' ranks.
    kernel_events:
        Optional time-ordered iterator of :class:`KernelEvent` (merged
        tick, interrupt and noise streams), read only as far as the run
        reaches.
    priorities:
        Optional rank -> static hardware priority, installed by the
        kernel at t=0 right after launch (which resets every rank to
        MEDIUM), like ``echo N > /proc/<pid>/hmt_priority`` after mpirun.
    """

    def __init__(
        self,
        chip: Power5Chip,
        kernel: KernelModel,
        hmt: HmtController,
        model,
        programs: Sequence[RankProgram],
        layout: RunLayout,
        config: Optional[RuntimeConfig] = None,
        kernel_events: Optional[Iterator[KernelEvent]] = None,
        label: str = "",
        priorities: Optional[Mapping[int, int]] = None,
        controllers: Optional[Sequence] = None,
    ) -> None:
        self.chip = chip
        self.kernel = kernel
        self.hmt = hmt
        self.model = model
        self.config = config or RuntimeConfig()
        self.label = label
        self.n_ranks = len(programs)
        if self.n_ranks == 0:
            raise ConfigurationError("need at least one rank program")
        if layout.n_ranks != self.n_ranks:
            raise MappingError(
                f"mapping must cover ranks 0..{self.n_ranks - 1}, "
                f"got {list(layout.mapping)}"
            )
        if layout.n_cpus != chip.n_cpus:
            raise MappingError(
                f"layout is for {layout.n_cpus} cpus, the chip has {chip.n_cpus}"
            )
        self.mapping = layout.mapping

        self.world = layout.world
        self._pair_costs = layout.pair_costs
        self.collectives = CollectiveManager(
            COMM_COSTS, pair_costs=layout.pair_costs
        )
        self.trace = Trace(self.n_ranks, label=label)
        #: What a waiting rank's context runs (``None``: it vacates it),
        #: and what a preempted one runs.
        self._wait_profile = (
            SPIN_LOAD if self.config.wait_mode == "spin" else None
        )

        group_of_core = layout.group_of_core
        self._procs: List[_Proc] = [
            _Proc(rank, slot, prog(api), timeline, group_of_core[slot[1]])
            for rank, (prog, slot, api, timeline) in enumerate(
                zip(programs, layout.slots, layout.apis, self.trace)
            )
        ]
        self._by_request: Dict[int, _Proc] = {}

        self.now = 0.0
        self._seq = itertools.count()
        self._heap: List[Tuple[float, int, str, object]] = []
        self._kernel_events = kernel_events
        self._next_kernel: Optional[KernelEvent] = None
        # Rate recomputation is tracked per core group (per node): a
        # priority write or load change on one chip only re-solves that
        # chip's IPC. Core ``i``'s contexts are CPUs ``2i`` and ``2i + 1``
        # of the chip's per-CPU load and priority slots.
        self._load_slots = chip.loads
        self._prio_slots = chip.priorities
        self._core_groups = layout.core_groups
        self._group_spans = layout.group_spans
        self._group_of_core = layout.group_of_core
        self._dirty_groups: Set[int] = set(range(len(self._core_groups)))
        #: Per core, its chip-memo state ``(load_a, load_b, prio_a,
        #: prio_b)`` and the same with loads by name, rebuilt at a
        #: re-solve only for the cores changed since the last one.
        n_cores = chip.n_cores
        self._core_states: List[tuple] = [()] * n_cores
        self._core_names: List[tuple] = [()] * n_cores
        self._stale_cores: Set[int] = set(range(n_cores))
        self._incremental = bool(self.config.incremental_rates)
        #: Per core, its threads' IPCs from the latest re-solve.
        self._ipc_by_core: List[Tuple[float, float]] = [()] * n_cores
        #: Per-run memo of a group's name key -> chip_ipc result. The
        #: model's chip cache takes the same key and persists across runs.
        self._group_ipc_memo: Dict[tuple, tuple] = {}
        #: How often each group's IPC was re-solved (observability: the
        #: multi-chip tests assert a chip-0 event leaves chip 1 alone).
        self.group_recompute_counts: List[int] = [0] * len(self._core_groups)
        self.events_processed = 0
        self._finished = 0
        self._static_priorities = priorities
        #: Periodic controllers (e.g. the dynamic balancer): objects with
        #: an ``interval`` in seconds and an ``on_tick(runtime, now)``
        #: method, invoked at each multiple of their interval.
        self._controllers = list(controllers or ())
        #: Live invariant oracle (None unless ``config.check_invariants``).
        #: Imported lazily: the oracle package imports this module.
        self._oracle = None
        if self.config.check_invariants:
            from repro.oracle.checker import RuntimeChecker

            self._oracle = RuntimeChecker(self)
        #: Coarse phase-timing instruments, or None. Checked once, at
        #: construction — the ``check_invariants`` discipline: when
        #: telemetry is off the run loop pays a single ``is None`` test
        #: per *run* (not per event), and all observations happen after
        #: the loop ends, so traces are byte-identical either way.
        self._telemetry = None
        if _telemetry_enabled():
            reg = _telemetry_registry()
            self._telemetry = {
                "launch": reg.histogram(
                    "repro_runtime_launch_seconds",
                    "Wall seconds spent launching ranks (pin + start + "
                    "first advance), per run.",
                ),
                "loop": reg.histogram(
                    "repro_runtime_loop_seconds",
                    "Wall seconds spent in the event loop, per run.",
                ),
                "runs": reg.counter(
                    "repro_runtime_runs_total", "Completed runtime runs."
                ),
                "events": reg.counter(
                    "repro_runtime_events_total",
                    "Discrete events processed across runs.",
                ),
                "recomputes": reg.counter(
                    "repro_runtime_rate_recomputes_total",
                    "Per-group IPC re-solves across runs.",
                ),
                "simulated": reg.counter(
                    "repro_runtime_simulated_seconds_total",
                    "Simulated seconds across runs.",
                ),
            }

    @cached_property
    def engine(self) -> MessageEngine:
        """The point-to-point engine, built at the run's first use of it
        (then an instance attribute, read at no extra cost)."""
        return MessageEngine(
            self.n_ranks, COMM_COSTS, pair_costs=self._pair_costs
        )

    # -- helpers ---------------------------------------------------------------

    def _push(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    def _mark_all_dirty(self) -> None:
        self._dirty_groups.update(range(len(self._core_groups)))
        self._stale_cores.update(range(self.chip.n_cores))

    def _mark_dirty_cpu(self, cpu: int) -> None:
        if self._incremental:
            self._dirty_groups.add(self._group_of_core[cpu // 2])
            self._stale_cores.add(cpu // 2)
        else:
            self._mark_all_dirty()

    def _set_context_load(self, proc: _Proc, name: Optional[str]) -> None:
        self._set_load(proc, BASE_PROFILES[name] if name is not None else None)

    def _set_load(self, proc: _Proc, profile: Optional[LoadProfile]) -> None:
        # Hot path: ``proc.cpu`` is in range by construction and
        # ``profile`` comes from the validated profile table, so write the
        # context slot directly.
        loads = self._load_slots
        if loads[proc.cpu] is profile:
            return  # no state change (e.g. re-installing the spin posture)
        loads[proc.cpu] = profile
        if self._incremental:
            self._dirty_groups.add(proc.group)
            self._stale_cores.add(proc.core_idx)
        else:
            self._mark_all_dirty()

    def _set_trace(self, proc: _Proc, state: Optional[RankState]) -> None:
        if proc.trace_state is not state:
            proc.timeline.transition(self.now, state)
            proc.trace_state = state

    def _recompute_rates(self) -> None:
        loads = self._load_slots
        prios = self._prio_slots
        states = self._core_states
        names = self._core_names
        for i in self._stale_cores:
            cpu = 2 * i
            load_a = loads[cpu]
            load_b = loads[cpu + 1]
            prio_a = prios[cpu]
            prio_b = prios[cpu + 1]
            states[i] = (load_a, load_b, prio_a, prio_b)
            names[i] = (load_a.name if load_a else None,
                        load_b.name if load_b else None, prio_a, prio_b)
        self._stale_cores.clear()
        ipc_by_core = self._ipc_by_core
        dirty = self._dirty_groups
        memo = self._group_ipc_memo
        for gi in sorted(dirty) if len(dirty) > 1 else tuple(dirty):
            span = self._group_spans[gi]
            # One key per re-solve, per core ``(name_a, name_b, prio_a,
            # prio_b)``: it keys this run's memo and the model's chip memo.
            key = tuple(names[span])
            ipcs = memo.get(key)
            if ipcs is None:
                ipcs = memo[key] = self.model.chip_ipc(tuple(states[span]), key)
            ipc_by_core[span] = ipcs
            self.group_recompute_counts[gi] += 1
        dirty.clear()
        freq = POWER5_FREQ_HZ
        computing = _PState.COMPUTING
        for proc in self._procs:
            if proc.state is computing:
                proc.rate = ipc_by_core[proc.core_idx][proc.thread] * freq

    # -- generator advancement -----------------------------------------------------

    def _advance(self, proc: _Proc) -> None:
        """Drive ``proc``'s generator until it blocks, computes or ends."""
        while True:
            try:
                op = proc.gen.send(proc.resume_value)
            except StopIteration:
                self._on_done(proc)
                return
            proc.resume_value = None
            op_type = type(op)
            if op_type is ComputeOp:
                self._start_compute(proc, op)
                return
            if op_type is CollectiveOp:
                self._start_collective(proc, op)
                return
            if op_type is P2pOp:
                if self._post(proc, op):
                    return
            elif op_type is WaitOp:
                for r in op.requests:
                    r.check_waitable()
                if self._await(proc, op.requests, op.single, RankState.SYNC):
                    return
            elif op_type is SetPriorityOp:
                self._apply_priority(proc, op)
            else:
                raise SimulationError(f"rank {proc.rank} yielded unknown op {op!r}")

    def _start_compute(self, proc: _Proc, op: ComputeOp) -> None:
        profile = BASE_PROFILES.get(op.profile)
        if profile is None:
            raise ConfigurationError(
                f"rank {proc.rank}: unknown load profile {op.profile!r}"
            )
        if op.instructions <= 0:
            # Zero work: complete immediately without a state excursion.
            proc.state = _PState.READY
            self._advance(proc)
            return
        proc.state = _PState.COMPUTING
        proc.remaining = float(op.instructions)
        proc.profile_name = op.profile
        proc.compute_trace_state = op.state
        self._set_load(proc, profile)
        if proc.group not in self._dirty_groups:
            # The load did not change (``spin`` over the spin posture):
            # nothing to re-solve, but the last rate is another profile's.
            ipc = self._ipc_by_core[proc.core_idx][proc.thread]
            proc.rate = ipc * POWER5_FREQ_HZ
        self._set_trace(proc, op.state)

    def _start_collective(self, proc: _Proc, op: CollectiveOp) -> None:
        outcome = self.collectives.arrive(
            op.comm or self.world, proc.rank, op.kind, op.nbytes, self.now
        )
        self._block(proc, _NO_REQUESTS, None, RankState.SYNC)
        if outcome is not None:
            release_time, ranks = outcome
            self._push(release_time, "coll", tuple(ranks))

    def _post(self, proc: _Proc, op: P2pOp) -> bool:
        """Post ``op``'s send, then its receive; True if the rank blocked."""
        sreq = rreq = None
        if op.send is not None:
            sreq, completions = self.engine.post_send(proc.rank, *op.send, self.now)
            self._register(proc, sreq, completions)
        if op.recv is not None:
            rreq, completions = self.engine.post_recv(proc.rank, *op.recv, self.now)
            self._register(proc, rreq, completions)
        if not op.blocking:
            proc.resume_value = rreq if sreq is None else sreq
            return False
        posted = [r for r in (sreq, rreq) if r is not None]
        return self._await(proc, posted, rreq, RankState.COMM)

    def _await(
        self,
        proc: _Proc,
        requests: Sequence[Request],
        single: Optional[Request],
        state: RankState,
    ) -> bool:
        """Block ``proc`` in ``state`` on the pending ``requests``; True if
        it blocked, else its resume value is ``single``'s status."""
        pending = [r for r in requests if not r.done]
        if not pending:
            proc.resume_value = None if single is None else single.status
            return False
        for r in pending:
            self._by_request[r.id] = proc
        self._block(proc, {r.id for r in pending}, single, state)
        return True

    def _register(
        self,
        proc: _Proc,
        req: Request,
        completions: List[Tuple[float, Request, Optional[Status]]],
    ) -> None:
        self._by_request[req.id] = proc
        for time, r, status in completions:
            self._push(max(time, self.now), "req", (r, status))

    def _block(
        self,
        proc: _Proc,
        awaiting: AbstractSet[int],
        single: Optional[Request],
        state: RankState,
    ) -> None:
        """Block ``proc`` in ``state`` until the ``awaiting`` request ids
        complete (none: until a collective releases it)."""
        proc.state = _PState.BLOCKED
        proc.awaiting = awaiting
        proc.single_wait = single
        proc.released = False
        proc.blocked_trace_state = state
        self._wait_posture(proc, state)

    def _wait_posture(self, proc: _Proc, state: RankState) -> None:
        """Install the waiting behaviour on the hardware context."""
        self._set_load(proc, self._wait_profile)
        self._set_trace(proc, state)

    def _apply_priority(self, proc: _Proc, op: SetPriorityOp) -> None:
        if op.via == "or-nop":
            # User-privilege nop: silently ignored outside 2..4.
            self.hmt.or_nop_priority(proc.cpu, op.priority, self.now)
        else:
            self.kernel.procfs.set_priority_of_pid(proc.rank, op.priority, self.now)
        self._mark_dirty_cpu(proc.cpu)

    def _on_done(self, proc: _Proc) -> None:
        proc.state = _PState.DONE
        self._finished += 1
        # The context empties and the kernel lowers its priority: either
        # way its core's rates are stale, as marked below.
        self._load_slots[proc.cpu] = None
        self._set_trace(proc, RankState.IDLE)
        self.kernel.on_cpu_idle(proc.cpu, self.now)
        self._mark_dirty_cpu(proc.cpu)

    # -- event handling ---------------------------------------------------------

    def _handle_request(self, req: Request, status: Optional[Status]) -> None:
        if not req.done:
            req.complete(status)
        proc = self._by_request.get(req.id)
        if proc is None:
            return
        if req.id in proc.awaiting:
            proc.awaiting.discard(req.id)
            if not proc.awaiting:
                self._unblock_proc(proc)
        # Nonblocking requests not currently awaited just become done.

    def _unblock_proc(self, proc: _Proc) -> None:
        if proc.state == _PState.NOISE:
            proc.released = True
            return
        if proc.state != _PState.BLOCKED:
            raise SimulationError(
                f"rank {proc.rank} unblocked while {proc.state}"
            )
        self._resume_from_block(proc)

    def _resume_from_block(self, proc: _Proc) -> None:
        """Transition a blocked rank back to running its generator."""
        if proc.single_wait is not None:
            proc.resume_value = proc.single_wait.status
            proc.single_wait = None
        proc.state = _PState.READY
        proc.released = False
        self._advance(proc)

    def _handle_collective_release(self, ranks: Tuple[int, ...]) -> None:
        for rank in ranks:
            proc = self._procs[rank]
            if proc.state == _PState.NOISE:
                proc.released = True
            elif proc.state == _PState.BLOCKED and not proc.awaiting:
                proc.state = _PState.READY
                self._advance(proc)
            else:
                raise SimulationError(
                    f"collective released rank {rank} in state {proc.state}"
                )

    def _handle_kernel_event(self, event: KernelEvent) -> None:
        self.kernel.on_interrupt_entry(event.cpu, self.now)
        self._mark_dirty_cpu(event.cpu)
        if event.duration <= 0:
            return
        # Preempt whatever runs on that cpu.
        victim: Optional[_Proc] = None
        for proc in self._procs:
            if proc.cpu == event.cpu and proc.state in (
                _PState.COMPUTING,
                _PState.BLOCKED,
            ):
                victim = proc
                break
        if victim is None:
            return
        victim.noise_resume = victim.state
        victim.state = _PState.NOISE
        self._set_load(victim, NOISE_LOAD)
        self._set_trace(victim, RankState.NOISE)
        self._push(self.now + event.duration, "noise_end", victim.rank)

    def _handle_noise_end(self, rank: int) -> None:
        proc = self._procs[rank]
        if proc.state != _PState.NOISE:
            raise SimulationError(f"noise_end for rank {rank} in state {proc.state}")
        resume = proc.noise_resume
        proc.noise_resume = None
        if resume == _PState.COMPUTING:
            proc.state = _PState.COMPUTING
            self._set_context_load(proc, proc.profile_name)
            # Recover the trace state of the interrupted compute segment.
            self._set_trace(proc, proc.compute_trace_state)
        else:
            proc.state = _PState.BLOCKED
            if proc.released and not proc.awaiting:
                self._resume_from_block(proc)
                return
            self._wait_posture(proc, proc.blocked_trace_state)
        self._mark_dirty_cpu(proc.cpu)

    # -- kernel event feed ---------------------------------------------------------

    def _peek_kernel(self) -> Optional[KernelEvent]:
        """The next kernel event, read once; a stream that runs dry
        (only a caller's finite one can) is dropped."""
        if self._next_kernel is None:
            self._next_kernel = next(self._kernel_events, None)
            if self._next_kernel is None:
                self._kernel_events = None
        return self._next_kernel

    # -- the main loop ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Run all rank programs to completion and return the result."""
        cfg = self.config
        telemetry = self._telemetry
        t_run0 = _time.perf_counter() if telemetry is not None else 0.0
        # Process launch: pins, MEDIUM resets, then the static priorities.
        self.kernel.launch(self.mapping, self._static_priorities, 0.0)
        for i, ctrl in enumerate(self._controllers):
            interval = float(getattr(ctrl, "interval"))
            check_positive("controller.interval", interval)
            self._push(interval, "ctrl", i)
        for proc in self._procs:
            self._advance(proc)
        t_launched = _time.perf_counter() if telemetry is not None else 0.0

        eps = EPSILON
        max_events = cfg.max_events
        time_limit = cfg.time_limit
        n_ranks = self.n_ranks
        procs = self._procs
        heap = self._heap
        dirty_groups = self._dirty_groups
        computing_state = _PState.COMPUTING
        oracle = self._oracle
        inf = math.inf
        while self._finished < n_ranks:
            if self.events_processed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now}"
                )
            # Only computing ranks read their rates, so dirty groups wait
            # for a step in which some rank computes.
            computing = [p for p in procs if p.state is computing_state]
            if computing and dirty_groups:
                self._recompute_rates()
                if oracle is not None:
                    oracle.on_rates()

            # The next instant: the earliest event or compute completion
            # (a strict ``<`` keeps what ``min`` keeps on a tie).
            now = self.now
            t_next = heap[0][0] if heap else inf
            for proc in computing:
                rate = proc.rate
                if rate > 0.0:
                    done_at = now + proc.remaining / rate
                    if done_at < t_next:
                        t_next = done_at
            # Kernel events only reset priorities or preempt; they never
            # unblock a rank, so they do not count against a deadlock.
            if t_next == inf:
                raise DeadlockError(
                    f"t={now:.6f}s: no runnable rank and no pending event. "
                    f"p2p: {self.engine.pending_summary()}; "
                    f"collectives: {self.collectives.pending_summary()}"
                )
            if self._kernel_events is not None:
                kernel_ev = self._peek_kernel()
                if kernel_ev is not None and kernel_ev.time < t_next:
                    t_next = kernel_ev.time
            if now > t_next:
                t_next = now
            if t_next > time_limit:
                raise SimulationError(
                    f"exceeded time_limit={time_limit}s "
                    f"(next event at t={t_next:.3f}s)"
                )

            # Advance fluid work.
            dt = t_next - now
            if dt > 0:
                for proc in computing:
                    remaining = proc.remaining - proc.rate * dt
                    proc.remaining = remaining if remaining > 0.0 else 0.0
            self.now = t_next
            if oracle is not None:
                oracle.on_advance()
            due = t_next + eps

            # Fire due heap events.
            while heap and heap[0][0] <= due:
                _, _, kind, payload = heapq.heappop(heap)
                self.events_processed += 1
                if kind == "req":
                    req, status = payload  # type: ignore[misc]
                    self._handle_request(req, status)
                elif kind == "coll":
                    self._handle_collective_release(payload)  # type: ignore[arg-type]
                elif kind == "noise_end":
                    self._handle_noise_end(payload)  # type: ignore[arg-type]
                elif kind == "ctrl":
                    idx = payload  # type: ignore[assignment]
                    ctrl = self._controllers[idx]
                    ctrl.on_tick(self, self.now)
                    # Controllers may touch any CPU's priority/load.
                    self._mark_all_dirty()
                    if self._finished < self.n_ranks:
                        self._push(self.now + float(ctrl.interval), "ctrl", idx)
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event kind {kind!r}")

            # Fire due kernel events.
            while self._kernel_events is not None:
                kernel_ev = self._peek_kernel()
                if kernel_ev is None or kernel_ev.time > due:
                    break
                self._next_kernel = None
                self.events_processed += 1
                self._handle_kernel_event(kernel_ev)

            # Complete computes that drained.
            for proc in procs:
                if proc.state is computing_state:
                    rate = proc.rate
                    if proc.remaining <= 0.0 or (
                        rate > 0.0 and proc.remaining / rate <= eps
                    ):
                        proc.remaining = 0.0
                        proc.state = _PState.READY
                        self.events_processed += 1
                        self._advance(proc)

        self.trace.finish_all(self.now)
        result = RunResult(
            label=self.label,
            trace=self.trace,
            total_time=self.now,
            events_processed=self.events_processed,
            priority_history_len=len(self.hmt.history),
            final_priorities=tuple(self._prio_slots),
        )
        if oracle is not None:
            oracle.on_finish(result)
        if telemetry is not None:
            t_end = _time.perf_counter()
            telemetry["launch"].observe(t_launched - t_run0)
            telemetry["loop"].observe(t_end - t_launched)
            telemetry["runs"].inc()
            telemetry["events"].inc(self.events_processed)
            telemetry["recomputes"].inc(sum(self.group_recompute_counts))
            telemetry["simulated"].inc(self.now)
        return result
