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
in mix order, functional-unit coefficients, miss rates) so the fixed
point runs on local floats — the arithmetic is kept term-for-term
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
    #: Fixed-point iterations (converges in ~4 for all tested pairs).
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

    __slots__ = (
        "ilp",
        "l1_miss",
        "l2_miss",
        "l3_miss",
        "mem_frac",
        "lat_terms",
        "fu_terms",
        "solo_plain",
    )

    def __init__(self, ilp, l1_miss, l2_miss, l3_miss, mem_frac, lat_terms, fu_terms):
        self.ilp = ilp
        self.l1_miss = l1_miss
        self.l2_miss = l2_miss
        self.l3_miss = l3_miss
        self.mem_frac = mem_frac
        #: (is_memory_op, mix_fraction, fixed_latency) in mix order.
        self.lat_terms = lat_terms
        #: (fu_group, mix_fraction) in mix order, zero fractions dropped.
        self.fu_terms = fu_terms
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
        self._share_cache: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._consts: Dict[str, _ProfileConsts] = {}
        self._fu_caps = self._fu_capacity()
        # Cache-level latencies, hoisted for the inlined expected-latency.
        self._lat_l1 = self.caches.levels["l1"].latency
        self._lat_l2 = self.caches.levels["l2"].latency
        self._lat_l3 = self.caches.levels["l3"].latency
        self._lat_mem = self.caches.memory.latency

    # -- building blocks -------------------------------------------------------

    def _profile_consts(self, profile: LoadProfile) -> _ProfileConsts:
        consts = self._consts.get(profile.name)
        if consts is not None:
            return consts
        cfg = self.config
        lat_terms = []
        fu_terms = []
        for cls, frac in profile.mix.items():
            spec = self.fu_specs[cls]
            if cls in (InstrClass.LOAD, InstrClass.STORE):
                lat_terms.append((True, frac, float(spec.latency)))
                group = "LSU"
            else:
                if cls is InstrClass.BRANCH:
                    fixed = float(spec.latency) + (
                        profile.branch_mispredict_rate * cfg.branch_flush_penalty
                    )
                else:
                    fixed = float(spec.latency)
                lat_terms.append((False, frac, fixed))
                group = spec.name
            if frac != 0.0:
                fu_terms.append((group, frac))
        consts = _ProfileConsts(
            ilp=profile.ilp,
            l1_miss=profile.l1_miss_rate,
            l2_miss=profile.l2_miss_rate,
            l3_miss=profile.l3_miss_rate,
            mem_frac=profile.memory_fraction,
            lat_terms=tuple(lat_terms),
            fu_terms=tuple(fu_terms),
        )
        consts.solo_plain = self._demand(consts, 0.0, 0.0)
        self._consts[profile.name] = consts
        return consts

    def _expected_latency(
        self, l1_miss: float, l2_miss: float, l3_miss: float, congestion: float
    ) -> float:
        """`CacheHierarchy.expected_latency`, term-for-term, on hoisted
        latencies (the hierarchy's validation is redundant here: profile
        miss rates are validated at construction)."""
        hit1 = 1.0 - l1_miss
        hit2 = l1_miss * (1.0 - l2_miss)
        hit3 = l1_miss * l2_miss * (1.0 - l3_miss)
        miss = l1_miss * l2_miss * l3_miss
        return (
            hit1 * self._lat_l1
            + hit2 * (self._lat_l2 + congestion)
            + hit3 * (self._lat_l3 + 2 * congestion)
            + miss * (self._lat_mem + 3 * congestion)
        )

    def _demand(self, c: _ProfileConsts, congestion: float, l1_tax: float) -> float:
        """Back-end-unconstrained IPC from precomputed constants."""
        l1_miss = min(1.0, c.l1_miss * (1.0 + l1_tax))
        mem_lat = self._expected_latency(l1_miss, c.l2_miss, c.l3_miss, congestion)
        total = 0.0
        for is_mem, frac, fixed in c.lat_terms:
            if frac == 0.0:
                continue
            lat = max(fixed, mem_lat) if is_mem else fixed
            total += frac * lat
        return c.ilp / (1.0 + (total - 1.0) / c.ilp)

    def mean_instruction_latency(
        self, profile: LoadProfile, congestion: float = 0.0, l1_tax: float = 0.0
    ) -> float:
        """Mix-weighted expected latency of one instruction, in cycles."""
        c = self._profile_consts(profile)
        l1_miss = min(1.0, c.l1_miss * (1.0 + l1_tax))
        mem_lat = self._expected_latency(l1_miss, c.l2_miss, c.l3_miss, congestion)
        total = 0.0
        for is_mem, frac, fixed in c.lat_terms:
            if frac == 0.0:
                continue
            lat = max(fixed, mem_lat) if is_mem else fixed
            total += frac * lat
        return total

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
        return self._demand(self._profile_consts(profile), congestion, l1_tax)

    def _fu_capacity(self) -> Dict[str, float]:
        """Ops/cycle capacity per physical unit group (LSU shared by LD/ST)."""
        caps: Dict[str, float] = {}
        for cls, spec in self.fu_specs.items():
            group = "LSU" if cls in (InstrClass.LOAD, InstrClass.STORE) else spec.name
            caps[group] = float(spec.count) / float(spec.initiation_interval)
        return caps

    def _fu_group(self, cls: InstrClass) -> str:
        if cls in (InstrClass.LOAD, InstrClass.STORE):
            return "LSU"
        return self.fu_specs[cls].name

    def _off_l1_rate(self, profile: LoadProfile, ipc: float) -> float:
        """Off-L1 accesses per cycle generated by a thread at ``ipc``."""
        c = self._profile_consts(profile)
        return ipc * c.mem_frac * c.l1_miss

    def _decode_share(self, prio_a: int, prio_b: int) -> Tuple[float, float]:
        hit = self._share_cache.get((prio_a, prio_b))
        if hit is None:
            hit = decode_share(prio_a, prio_b, self.config.leftover_fraction)
            self._share_cache[(prio_a, prio_b)] = hit
        return hit

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
        """
        key = (
            profile_a.name if profile_a else None,
            profile_b.name if profile_b else None,
            int(prio_a),
            int(prio_b),
            float(external_traffic),
        )
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        result = self._solve(profile_a, profile_b, int(prio_a), int(prio_b), external_traffic)
        self._cache.put(key, result)
        return result

    def _solve(
        self,
        profile_a: Optional[LoadProfile],
        profile_b: Optional[LoadProfile],
        prio_a: int,
        prio_b: int,
        external_traffic: float,
    ) -> Tuple[float, float]:
        cfg = self.config
        share_a, share_b = self._decode_share(prio_a, prio_b)
        shares = (share_a, share_b)
        consts = tuple(
            self._profile_consts(p) if p is not None else None
            for p in (profile_a, profile_b)
        )
        active = [c is not None and s > 0.0 for c, s in zip(consts, shares)]
        both_active = all(active)
        caps = self._fu_caps

        supply = [
            (s * cfg.decode_width if act else 0.0) for s, act in zip(shares, active)
        ]
        solo = [c.solo_plain if act else 0.0 for c, act in zip(consts, active)]
        x = [
            min(sup, so) if act else 0.0
            for sup, so, act in zip(supply, solo, active)
        ]

        congestion_cycles = cfg.congestion_cycles
        l1_sharing_tax = cfg.l1_sharing_tax
        base_traffic = external_traffic * cfg.cross_core_factor
        damping = cfg.damping

        for _ in range(cfg.iterations):
            # Congestion from combined off-L1 traffic (plus cross-core).
            traffic = base_traffic
            for c, xi, act in zip(consts, x, active):
                if act:
                    traffic += xi * c.mem_frac * c.l1_miss
            congestion = congestion_cycles * traffic

            new_x = []
            for i, (c, act) in enumerate(zip(consts, active)):
                if not act:
                    new_x.append(0.0)
                    continue
                # L1 pressure from the sibling scales with how fast the
                # sibling actually runs: a decode-starved (or idle)
                # co-runner evicts less.
                j = 1 - i
                if both_active and solo[j] > 0:
                    l1_tax = l1_sharing_tax * min(1.0, x[j] / solo[j])
                else:
                    l1_tax = 0.0
                demand = self._demand(c, congestion, l1_tax)
                new_x.append(min(supply[i], demand))

            # Joint FU capacity: proportional scaling by the worst group.
            scale = 1.0
            for group, cap in caps.items():
                util = 0.0
                for c, xi, act in zip(consts, new_x, active):
                    if act:
                        for g, frac in c.fu_terms:
                            if g == group:
                                util += xi * frac
                if util > cap:
                    scale = min(scale, cap / util)
            if scale < 1.0:
                new_x = [xi * scale for xi in new_x]

            # Memory bandwidth: outstanding misses bounded by MSHRs.
            off_l1 = 0
            for c, xi, act in zip(consts, new_x, active):
                if act:
                    off_l1 += xi * c.mem_frac * c.l1_miss
            if off_l1 > 0:
                # Average service latency of an off-L1 access across threads.
                lat_num = 0.0
                for c, xi, act in zip(consts, new_x, active):
                    if not act or c.mem_frac == 0.0:
                        continue
                    lat = self._expected_latency(1.0, c.l2_miss, c.l3_miss, congestion)
                    lat_num += xi * c.mem_frac * c.l1_miss * lat
                mean_lat = lat_num / off_l1 if off_l1 else 0.0
                if mean_lat > 0:
                    mem_cap = self.caches.memory.mshrs_per_core / mean_lat
                    if off_l1 > mem_cap:
                        mem_scale = mem_cap / off_l1
                        new_x = [xi * mem_scale for xi in new_x]

            x = [
                xi + damping * (nxi - xi) for xi, nxi in zip(x, new_x)
            ]

        return (max(0.0, x[0]), max(0.0, x[1]))

    def chip_ipc(
        self,
        core_states: Tuple[
            Tuple[Optional[LoadProfile], Optional[LoadProfile], int, int], ...
        ],
    ) -> Tuple[Tuple[float, float], ...]:
        """Coupled solve for all cores of a chip.

        ``core_states`` holds ``(profile_a, profile_b, prio_a, prio_b)``
        per core. Cores are coupled through shared-L2/L3 congestion: each
        core is solved with the other cores' off-L1 traffic as external.
        Two coupling sweeps suffice — traffic changes slowly in IPC.

        Whole-group results are memoised (bounded LRU) on the tuple of
        per-core ``(load_a, load_b, prio_a, prio_b)`` states: MPI phase
        structure revisits the same machine states constantly, so the
        runtime's rate recomputation usually resolves to one lookup.
        """
        key = _chip_key(core_states)
        hit = self._chip_cache.get(key)
        if hit is not None:
            return hit
        results = [self.core_ipc(pa, pb, xa, xb) for (pa, pb, xa, xb) in core_states]
        for _ in range(2):
            traffics = []
            for (pa, pb, _xa, _xb), (ia, ib) in zip(core_states, results):
                t = 0.0
                if pa is not None:
                    t += self._off_l1_rate(pa, ia)
                if pb is not None:
                    t += self._off_l1_rate(pb, ib)
                traffics.append(t)
            total = sum(traffics)
            results = [
                self.core_ipc(pa, pb, xa, xb, external_traffic=total - t)
                for (pa, pb, xa, xb), t in zip(core_states, traffics)
            ]
        out = tuple(results)
        self._chip_cache.put(key, out)
        return out

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
        self._share_cache.clear()
