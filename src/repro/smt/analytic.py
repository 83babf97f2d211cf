"""Closed-form throughput model for a priority pair of co-running loads.

The fluid-rate MPI runtime needs, many times per simulated second, the
answer to: *given loads A and B on the two contexts of a core at
priorities X and Y, how many instructions per cycle does each thread
complete?* Running the cycle simulator for every query is possible (see
:mod:`repro.smt.throughput`) but slow; this module provides the fast
closed-form alternative, built from the same ingredients:

1. **Decode supply** — ``share_i * decode_width`` from the Table II/III
   arbitration (:func:`repro.smt.decode.decode_share`). This is the lever
   the paper pulls: supply falls off exponentially with the priority
   difference.
2. **Solo demand** — a dependence-chain model:
   ``demand = ilp / (1 + (E[lat]-1)/ilp)`` with ``E[lat]`` the mix-weighted
   instruction latency including the expected memory-access latency and
   the branch-misprediction penalty.
3. **Shared back-end contention** — joint functional-unit capacity
   (FXU/FPU/LSU/BXU per class), memory-bandwidth (MSHR) limits, an
   L1-sharing tax when both contexts are active, and a congestion term in
   memory latency proportional to combined off-L1 traffic.

Throughputs are solved by a short damped fixed-point iteration; the model
is validated against the cycle simulator in
``tests/smt/test_model_agreement.py``.

Performance: the solver precomputes per-profile constants (latency terms
in mix order, per-FU-group fraction tuples, miss rates) and, once per
distinct core state, a solve plan (decode supplies, solo demands,
starting IPCs, L1-tax flags, FU groups in use), so a solve runs only the
traffic-dependent fixed point, as straight-line code on local floats —
the arithmetic is kept term-for-term
identical to the definitional formulas, so results are bit-identical to
an unoptimised evaluation. Solves are memoised at two levels with
bounded LRU caches: per core state (``core_ipc``) and per whole
chip-group state (``chip_ipc``), the latter shared with the MPI
runtime's rate recomputation.

The memo keys are exact: the core-level key carries the external
traffic as the full float, so the model is a *pure function* of its
query — cached and uncached answers are byte-identical, and results
never depend on which queries happened to arrive first. (Earlier
revisions rounded the traffic component to 1e-4, which made converged
values sensitive to cache history; the batch execution path and the
cached-vs-uncached equivalence tests both rely on the exact keys.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.smt.cache import CacheHierarchy
from repro.smt.decode import decode_share
from repro.smt.functional_units import POWER5_FU_SPECS, FunctionalUnitSpec
from repro.smt.instructions import InstrClass, LoadProfile
from repro.util.memo import CacheStats, LruCache
from repro.util.validation import check_in_range, check_non_negative, check_positive

__all__ = ["AnalyticModelConfig", "AnalyticThroughputModel"]


@dataclass(frozen=True)
class AnalyticModelConfig:
    """Tunables of the closed-form model."""

    decode_width: int = 5
    #: Decode share granted to a VERY-LOW (priority 1) thread, which only
    #: receives cycles its sibling cannot use (Table III "leftover").
    leftover_fraction: float = 1.0 / 32.0
    #: Branch redirect penalty in cycles (matches PipelineConfig).
    branch_flush_penalty: int = 7
    #: Relative L1 miss-rate inflation when the sibling context is active
    #: (the two contexts share the L1), scaled by the sibling's actual
    #: throughput. Loads with a real L1 footprint (cfd/dft) feel this
    #: strongly; L1-resident kernels (hpc/int) barely notice it.
    l1_sharing_tax: float = 0.5
    #: Extra memory-latency cycles per unit of combined off-L1 accesses
    #: per cycle (queueing at the shared L2/L3/memory). Calibrated so a
    #: pair of memory-bound (dft) threads mutually slow ~25 % while
    #: L1-resident pairs are barely coupled through this term.
    congestion_cycles: float = 150.0
    #: Cross-core coupling strength: fraction of the other core's off-L1
    #: traffic that contributes to this core's congestion.
    cross_core_factor: float = 0.5
    #: Fixed-point iterations: a fixed count, always run in full (no
    #: early exit is taken).
    iterations: int = 8
    #: Damping of the fixed-point update in (0, 1].
    damping: float = 0.7

    def __post_init__(self) -> None:
        check_positive("decode_width", self.decode_width)
        check_in_range("leftover_fraction", self.leftover_fraction, 0.0, 0.5)
        check_non_negative("branch_flush_penalty", self.branch_flush_penalty)
        check_non_negative("l1_sharing_tax", self.l1_sharing_tax)
        check_non_negative("congestion_cycles", self.congestion_cycles)
        check_in_range("cross_core_factor", self.cross_core_factor, 0.0, 1.0)
        check_positive("iterations", self.iterations)
        check_in_range("damping", self.damping, 0.05, 1.0)


def _chip_key(core_states) -> tuple:
    """The chip memo key: per core ``(load_a, load_b, prio_a, prio_b)``
    with loads by profile name."""
    if not core_states:
        raise ConfigurationError("chip_ipc needs at least one core state")
    return tuple(
        (
            pa.name if pa else None,
            pb.name if pb else None,
            int(xa),
            int(xb),
        )
        for (pa, pb, xa, xb) in core_states
    )


class _ProfileConsts:
    """Precomputed per-profile solver inputs (mix order preserved)."""

    __slots__ = ("ilp", "l1_miss", "l2_miss", "l3_miss", "l2_hit", "l3_hit",
                 "off_l1_hit3", "off_l1_miss", "mem_frac", "lat_terms", "fu_fracs",
                 "solo_plain")

    def __init__(self, profile: LoadProfile, lat_terms, fu_fracs) -> None:
        self.ilp = profile.ilp
        self.l1_miss = profile.l1_miss_rate
        self.l2_miss = l2 = profile.l2_miss_rate
        self.l3_miss = l3 = profile.l3_miss_rate
        self.l2_hit = 1.0 - l2
        self.l3_hit = 1.0 - l3
        #: L3-hit and memory probabilities of an access that missed L1.
        self.off_l1_hit3 = l2 * self.l3_hit
        self.off_l1_miss = l2 * l3
        self.mem_frac = profile.memory_fraction
        #: (mix_fraction, fixed_latency, fraction * fixed_latency) in mix
        #: order, zero fractions dropped; the product is None for memory
        #: ops, whose latency depends on the congested hierarchy.
        self.lat_terms = lat_terms
        #: Per FU group (in capacity order), the group's mix fractions in
        #: mix order, zero fractions dropped (LSU carries loads and stores).
        self.fu_fracs = fu_fracs
        self.solo_plain = 0.0  # filled by the model (needs cache latencies)


class AnalyticThroughputModel:
    """Closed-form per-thread IPC for co-running loads at given priorities.

    The model instance is stateless apart from its memoisation caches; it
    is safe to share one instance across an experiment, and it can be
    pickled across a process-pool boundary (parallel search).

    Parameters
    ----------
    core_cache_size, chip_cache_size:
        Bounds of the LRU memo caches for :meth:`core_ipc` and
        :meth:`chip_ipc`; 0 disables the respective cache (used by the
        cached-vs-uncached equivalence tests).
    """

    def __init__(
        self,
        config: Optional[AnalyticModelConfig] = None,
        caches: Optional[CacheHierarchy] = None,
        fu_specs: Mapping[InstrClass, FunctionalUnitSpec] = POWER5_FU_SPECS,
        core_cache_size: int = 65536,
        chip_cache_size: int = 16384,
    ) -> None:
        self.config = config or AnalyticModelConfig()
        self.caches = caches or CacheHierarchy()
        self.fu_specs = dict(fu_specs)
        self._cache: LruCache[Tuple[float, float]] = LruCache(core_cache_size)
        self._chip_cache: LruCache[Tuple[Tuple[float, float], ...]] = LruCache(
            chip_cache_size
        )
        self._consts: Dict[str, _ProfileConsts] = {}
        #: Core state -> its record: memory fraction a, L1 miss rate a, the
        #: same for b (0.0 for an idle context), the state's sweep-0 core
        #: memo key and its solve plan (see :meth:`_terms_of`). Built once
        #: per distinct state.
        self._core_terms: Dict[tuple, tuple] = {}
        # Ops/cycle capacity per physical unit group (LSU shared by LD/ST).
        fu_caps: Dict[str, float] = {}
        for cls, spec in self.fu_specs.items():
            group = "LSU" if cls in (InstrClass.LOAD, InstrClass.STORE) else spec.name
            fu_caps[group] = float(spec.count) / float(spec.initiation_interval)
        self._fu_groups = tuple(fu_caps)
        self._fu_caps = tuple(fu_caps.values())
        self._no_fus = ((),) * len(fu_caps)
        # Hierarchy constants, hoisted for the inlined expected latency.
        self._lat_l1 = self.caches.levels["l1"].latency
        self._lat_l2 = self.caches.levels["l2"].latency
        self._lat_l3 = self.caches.levels["l3"].latency
        self._lat_mem = self.caches.memory.latency
        self._mshrs = self.caches.memory.mshrs_per_core

    # -- building blocks -------------------------------------------------------

    def _profile_consts(self, profile: Optional[LoadProfile]):
        """The profile's :class:`_ProfileConsts` (``None`` when idle)."""
        if profile is None:
            return None
        consts = self._consts.get(profile.name)
        if consts is not None:
            return consts
        flush = profile.branch_mispredict_rate * self.config.branch_flush_penalty
        lat_terms = []
        fu_terms = []
        for cls, frac in profile.mix.items():
            spec = self.fu_specs[cls]
            fixed = float(spec.latency)
            if cls is InstrClass.BRANCH:
                fixed += flush
            memory = cls in (InstrClass.LOAD, InstrClass.STORE)
            if frac != 0.0:
                lat_terms.append((frac, fixed, None if memory else frac * fixed))
                fu_terms.append(("LSU" if memory else spec.name, frac))
        fu_fracs = tuple(
            tuple(frac for g, frac in fu_terms if g == group)
            for group in self._fu_groups
        )
        consts = _ProfileConsts(profile, tuple(lat_terms), fu_fracs)
        consts.solo_plain = self._demand(
            consts, 0.0, self._lat_l2, self._lat_l3, self._lat_mem
        )
        self._consts[profile.name] = consts
        return consts

    def _demand(
        self, c: _ProfileConsts, l1_tax: float, lat2: float, lat3: float, lat_mem: float
    ) -> float:
        """Back-end-unconstrained IPC from precomputed constants, given
        the congested L2/L3/memory latencies (``latency + k * congestion``
        at the k-th level below L1). The memory latency is
        ``CacheHierarchy.expected_latency``, term for term, minus its
        validation (profile miss rates are validated at construction)."""
        l1_miss = c.l1_miss * (1.0 + l1_tax)
        if not l1_miss < 1.0:  # min(1.0, l1_miss)
            l1_miss = 1.0
        l12 = l1_miss * c.l2_miss
        mem_lat = (
            (1.0 - l1_miss) * self._lat_l1
            + l1_miss * c.l2_hit * lat2
            + l12 * c.l3_hit * lat3
            + l12 * c.l3_miss * lat_mem
        )
        total = 0.0
        for frac, fixed, product in c.lat_terms:
            if product is None:
                total += frac * (mem_lat if mem_lat > fixed else fixed)
            else:
                total += product
        ilp = c.ilp
        return ilp / (1.0 + (total - 1.0) / ilp)

    def solo_demand(
        self, profile: LoadProfile, congestion: float = 0.0, l1_tax: float = 0.0
    ) -> float:
        """Back-end-unconstrained IPC demand of a thread.

        Dependence-chain argument: the thread sustains ``ilp`` independent
        chains; a fraction ``1/ilp`` of instructions must wait for their
        producer, adding ``E[lat]-1`` cycles each, so the per-instruction
        cost is ``1/ilp * (1 + (E[lat]-1)/ilp)`` chain-cycles... folded:
        ``demand = ilp / (1 + (E[lat]-1)/ilp)``.
        """
        return self._demand(
            self._profile_consts(profile),
            l1_tax,
            self._lat_l2 + congestion,
            self._lat_l3 + 2 * congestion,
            self._lat_mem + 3 * congestion,
        )

    # -- the solver -------------------------------------------------------------

    def core_ipc(
        self,
        profile_a: Optional[LoadProfile],
        profile_b: Optional[LoadProfile],
        prio_a: int,
        prio_b: int,
        external_traffic: float = 0.0,
    ) -> Tuple[float, float]:
        """Per-thread IPC for the pair; ``None`` profile = idle context.

        ``external_traffic`` is off-L1 accesses/cycle arriving from the
        *other* core (cross-core L2/L3 contention); see :meth:`chip_ipc`.
        The core memo keys ``(load_a, load_b, prio_a, prio_b)``, loads by
        profile name, together with the exact traffic.
        """
        (state,) = _chip_key(((profile_a, profile_b, prio_a, prio_b),))
        external_traffic = float(external_traffic)
        key = state + (external_traffic,)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        core = self._core_terms.get(state) or self._terms_of(state, profile_a, profile_b)
        result = self._solve(core[5], external_traffic)
        self._cache.put(key, result)
        return result

    def _plan(
        self,
        c_a: Optional[_ProfileConsts],
        c_b: Optional[_ProfileConsts],
        prio_a: int,
        prio_b: int,
    ) -> tuple:
        """A core state's solve plan: everything :meth:`_solve` needs that
        does not depend on traffic.

        A thread without a load or without decode share is inactive: its
        constants become ``None`` and it contributes nothing. The plan is
        ``(c_a, c_b, supply_a, supply_b, solo_a, solo_b, x_a, x_b,
        taxed_a, taxed_b, fu_groups)``: decode supplies, solo demands,
        the starting IPCs, the two L1-tax flags and the FU groups in use.
        """
        width = self.config.decode_width
        share_a, share_b = decode_share(prio_a, prio_b, self.config.leftover_fraction)
        if c_a is not None and share_a > 0.0:
            supply_a = share_a * width
            solo_a = c_a.solo_plain
            x_a = min(supply_a, solo_a)
            fu_a = c_a.fu_fracs
        else:
            c_a, supply_a, solo_a, x_a, fu_a = None, 0.0, 0.0, 0.0, self._no_fus
        if c_b is not None and share_b > 0.0:
            supply_b = share_b * width
            solo_b = c_b.solo_plain
            x_b = min(supply_b, solo_b)
            fu_b = c_b.fu_fracs
        else:
            c_b, supply_b, solo_b, x_b, fu_b = None, 0.0, 0.0, 0.0, self._no_fus
        # L1 pressure from the sibling scales with how fast the sibling
        # actually runs: a decode-starved (or idle) co-runner evicts less.
        taxed_a = c_a is not None and c_b is not None and solo_b > 0
        taxed_b = c_a is not None and c_b is not None and solo_a > 0
        # Groups neither thread uses never bind; skip them.
        fu_groups = tuple(g for g in zip(self._fu_caps, fu_a, fu_b) if g[1] or g[2])
        return (c_a, c_b, supply_a, supply_b, solo_a, solo_b, x_a, x_b,
                taxed_a, taxed_b, fu_groups)

    def _solve(self, plan: tuple, external_traffic: float) -> Tuple[float, float]:
        """The damped fixed point for threads ``a`` and ``b`` of a core
        state, from its :meth:`_plan`.

        Every sum keeps the term order of the definitional formulas
        (thread ``a`` before ``b``, mix order within a thread), so results
        are bit-identical to an unoptimised evaluation.
        """
        (c_a, c_b, supply_a, supply_b, solo_a, solo_b, x_a, x_b,
         taxed_a, taxed_b, fu_groups) = plan
        cfg = self.config
        congestion_cycles = cfg.congestion_cycles
        l1_sharing_tax = cfg.l1_sharing_tax
        base_traffic = external_traffic * cfg.cross_core_factor
        damping = cfg.damping
        lat_l2, lat_l3, lat_mem = self._lat_l2, self._lat_l3, self._lat_mem

        for _ in range(cfg.iterations):
            # Congestion from combined off-L1 traffic (plus cross-core).
            traffic = base_traffic
            if c_a is not None:
                traffic += x_a * c_a.mem_frac * c_a.l1_miss
            if c_b is not None:
                traffic += x_b * c_b.mem_frac * c_b.l1_miss
            congestion = congestion_cycles * traffic
            lat2 = lat_l2 + congestion
            lat3 = lat_l3 + 2 * congestion
            lat_m = lat_mem + 3 * congestion

            new_a = new_b = 0.0
            if c_a is not None:
                l1_tax = 0.0
                if taxed_a:
                    ratio = x_b / solo_b
                    l1_tax = l1_sharing_tax * (ratio if ratio < 1.0 else 1.0)
                new_a = self._demand(c_a, l1_tax, lat2, lat3, lat_m)
                if not new_a < supply_a:  # min(supply_a, new_a)
                    new_a = supply_a
            if c_b is not None:
                l1_tax = 0.0
                if taxed_b:
                    ratio = x_a / solo_a
                    l1_tax = l1_sharing_tax * (ratio if ratio < 1.0 else 1.0)
                new_b = self._demand(c_b, l1_tax, lat2, lat3, lat_m)
                if not new_b < supply_b:
                    new_b = supply_b

            # Joint FU capacity: proportional scaling by the worst group.
            scale = 1.0
            for cap, fracs_a, fracs_b in fu_groups:
                util = 0.0
                for frac in fracs_a:
                    util += new_a * frac
                for frac in fracs_b:
                    util += new_b * frac
                if util > cap:
                    ratio = cap / util
                    if ratio < scale:  # min(scale, ratio)
                        scale = ratio
            if scale < 1.0:
                new_a *= scale
                new_b *= scale

            # Memory bandwidth: outstanding misses bounded by MSHRs.
            off_a = new_a * c_a.mem_frac * c_a.l1_miss if c_a is not None else 0.0
            off_b = new_b * c_b.mem_frac * c_b.l1_miss if c_b is not None else 0.0
            off_l1 = off_a + off_b
            if off_l1 > 0:
                # Average service latency of an off-L1 access across threads.
                lat_num = 0.0
                if c_a is not None and c_a.mem_frac != 0.0:
                    lat_num += off_a * (
                        c_a.l2_hit * lat2 + c_a.off_l1_hit3 * lat3
                        + c_a.off_l1_miss * lat_m
                    )
                if c_b is not None and c_b.mem_frac != 0.0:
                    lat_num += off_b * (
                        c_b.l2_hit * lat2 + c_b.off_l1_hit3 * lat3
                        + c_b.off_l1_miss * lat_m
                    )
                mean_lat = lat_num / off_l1
                if mean_lat > 0:
                    mem_cap = self._mshrs / mean_lat
                    if off_l1 > mem_cap:
                        mem_scale = mem_cap / off_l1
                        new_a *= mem_scale
                        new_b *= mem_scale

            x_a = x_a + damping * (new_a - x_a)
            x_b = x_b + damping * (new_b - x_b)

        return (max(0.0, x_a), max(0.0, x_b))

    def chip_ipc(
        self,
        core_states: Tuple[
            Tuple[Optional[LoadProfile], Optional[LoadProfile], int, int], ...
        ],
        key: Optional[tuple] = None,
    ) -> Tuple[Tuple[float, float], ...]:
        """Coupled solve for all cores of a chip.

        ``core_states`` holds ``(profile_a, profile_b, prio_a, prio_b)``
        per core. Cores are coupled through shared-L2/L3 congestion: each
        core is solved with the other cores' off-L1 traffic as external.
        Two coupling sweeps suffice — traffic changes slowly in IPC.

        Whole-group results are memoised (bounded LRU) on the tuple of
        per-core ``(load_a, load_b, prio_a, prio_b)`` states: MPI phase
        structure revisits the same machine states constantly, so the
        runtime's rate recomputation usually resolves to one lookup. On a
        miss, each core's entry of that key is its core-memo state. A
        caller holding that key (the MPI runtime) passes it as ``key``.

        A miss makes three sweeps of core-memo lookups (isolated, then
        two coupled), in core order; each looks up, and on a miss solves
        and inserts, exactly as :meth:`core_ipc` would, so the memo's
        hit/miss counts and LRU order are the same as through it.
        """
        if key is None:
            key = _chip_key(core_states)
        # The chip memo, read and written inline: the same hits, misses,
        # recency and eviction as LruCache.get and put.
        chip_cache = self._chip_cache
        chip_data = chip_cache._data
        out = chip_data.get(key)
        if out is not None:
            chip_cache.hits += 1
            chip_data.move_to_end(key)
            return out
        chip_cache.misses += 1
        terms = self._core_terms
        cores = [terms.get(state) for state in key]
        if None in cores:
            cores = [
                found or self._terms_of(state, pa, pb)
                for found, state, (pa, pb, _xa, _xb) in zip(cores, key, core_states)
            ]
        # The core memo's get, inlined the same way; inserts go through
        # its put.
        core_cache = self._cache
        data = core_cache._data
        get = data.get
        move_to_end = data.move_to_end
        put = core_cache.put
        solve = self._solve
        hits = misses = 0
        # Sweep 0 solves each core alone, under its record's zero-traffic
        # key; sweeps 1 and 2 couple the cores through each other's
        # off-L1 traffic (an idle context's terms are 0.0, and so is its
        # IPC). Each sweep overwrites ``results`` in core order.
        results = []
        for core in cores:
            core_key = core[4]
            ipcs = get(core_key)
            if ipcs is None:
                misses += 1
                ipcs = solve(core[5], 0.0)
                put(core_key, ipcs)
            else:
                hits += 1
                move_to_end(core_key)
            results.append(ipcs)
        n = len(cores)
        for _sweep in (1, 2):
            traffics = [
                ia * mf_a * l1_a + ib * mf_b * l1_b
                for (ia, ib), (mf_a, l1_a, mf_b, l1_b, _k, _p) in zip(results, cores)
            ]
            total = sum(traffics)
            for i in range(n):
                external = total - traffics[i]
                core_key = key[i] + (external,)
                ipcs = get(core_key)
                if ipcs is None:
                    misses += 1
                    ipcs = solve(cores[i][5], external)
                    put(core_key, ipcs)
                else:
                    hits += 1
                    move_to_end(core_key)
                results[i] = ipcs
        core_cache.hits += hits
        core_cache.misses += misses
        out = tuple(results)
        if chip_cache.max_size:
            chip_data[key] = out
            if len(chip_data) > chip_cache.max_size:
                chip_data.popitem(last=False)
        return out

    def _terms_of(
        self, state: tuple, pa: Optional[LoadProfile], pb: Optional[LoadProfile]
    ) -> tuple:
        """Build and keep ``state``'s record in the per-core terms."""
        c_a = self._profile_consts(pa)
        c_b = self._profile_consts(pb)
        found = self._core_terms[state] = (
            c_a.mem_frac if c_a is not None else 0.0,
            c_a.l1_miss if c_a is not None else 0.0,
            c_b.mem_frac if c_b is not None else 0.0,
            c_b.l1_miss if c_b is not None else 0.0,
            state + (0.0,),
            self._plan(c_a, c_b, state[2], state[3]),
        )
        return found

    def chip_ipc_stack(self, chip_states):
        """:meth:`chip_ipc` over a sequence of ``core_states`` tuples.

        One per-chip result tuple per state; repeated states are memo
        hits after their first solve. ``perfbench/layers.py`` wraps this
        method by name to count batched chip states.
        """
        return [self.chip_ipc(core_states) for core_states in chip_states]

    # -- cache accounting -------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Combined accounting of the core- and chip-level memo caches."""
        return self._cache.stats() + self._chip_cache.stats()

    def clear_cache(self) -> None:
        """Drop memoised results (after mutating config, for tests)."""
        self._cache.clear()
        self._chip_cache.clear()
        self._consts.clear()
        self._core_terms.clear()
