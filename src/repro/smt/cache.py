"""Cache hierarchy model: per-core L1s, shared L2/L3, memory.

The cycle-level pipeline does not simulate tags and sets; a memory
access's level of service is drawn from the accessing thread's
:class:`~repro.smt.instructions.LoadProfile` miss rates (deterministic,
named RNG streams). What the hierarchy contributes is *latency* and a
bounded number of outstanding misses (MSHRs) per core — the second shared
resource through which a memory-bound thread slows its sibling.

A light contention model adds queueing delay at the shared L2/L3/memory
when both cores (or both threads) miss concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import ConfigurationError
from repro.util.validation import check_non_negative, check_positive

__all__ = ["CacheLevel", "MemorySpec", "CacheHierarchy", "POWER5_CACHES"]


@dataclass(frozen=True)
class CacheLevel:
    """Latency/occupancy description of one cache level."""

    name: str
    latency: int  # total load-to-use cycles on a hit at this level
    shared: bool  # shared between cores (L2/L3) or per-core (L1)
    bandwidth_per_cycle: float = 1.0  # accesses servable per cycle

    def __post_init__(self) -> None:
        check_positive(f"{self.name}.latency", self.latency)
        check_positive(f"{self.name}.bandwidth_per_cycle", self.bandwidth_per_cycle)


@dataclass(frozen=True)
class MemorySpec:
    """Main-memory latency and MSHR limits."""

    latency: int = 230
    mshrs_per_core: int = 8

    def __post_init__(self) -> None:
        check_positive("memory.latency", self.latency)
        check_positive("memory.mshrs_per_core", self.mshrs_per_core)


#: Representative POWER5 hierarchy (1.9 MB shared L2, 36 MB off-chip L3).
POWER5_CACHES: Mapping[str, CacheLevel] = {
    "l1": CacheLevel("l1", latency=2, shared=False),
    "l2": CacheLevel("l2", latency=13, shared=True, bandwidth_per_cycle=0.5),
    "l3": CacheLevel("l3", latency=87, shared=True, bandwidth_per_cycle=0.25),
}


@dataclass
class CacheHierarchy:
    """Latency oracle plus MSHR accounting for one chip.

    ``access`` maps a drawn (miss1, miss2, miss3) triple to a service
    latency including a congestion-dependent queueing term at shared
    levels. Congestion is tracked as exponentially-decayed recent miss
    traffic, so a phase of dense misses raises everyone's latency — the
    cheap stand-in for bank conflicts and bus occupancy.
    """

    levels: Mapping[str, CacheLevel] = field(default_factory=lambda: dict(POWER5_CACHES))
    memory: MemorySpec = field(default_factory=MemorySpec)
    #: Queueing sensitivity: extra cycles per unit of recent shared-level traffic.
    congestion_factor: float = 4.0
    #: Decay constant (cycles) of the traffic estimator.
    congestion_window: float = 64.0

    _traffic: float = field(init=False, default=0.0)
    _last_cycle: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        for key in ("l1", "l2", "l3"):
            if key not in self.levels:
                raise ConfigurationError(f"cache hierarchy missing level {key!r}")
        check_non_negative("congestion_factor", self.congestion_factor)
        check_positive("congestion_window", self.congestion_window)

    def _decay_traffic(self, cycle: int) -> None:
        dt = cycle - self._last_cycle
        if dt > 0:
            self._traffic *= pow(2.0, -dt / self.congestion_window)
            self._last_cycle = cycle

    @property
    def recent_traffic(self) -> float:
        """Decayed count of recent shared-level accesses (diagnostic)."""
        return self._traffic

    def access(self, cycle: int, miss1: bool, miss2: bool, miss3: bool) -> int:
        """Latency in cycles of a memory access at ``cycle``.

        ``miss1``/``miss2``/``miss3`` are the pre-drawn per-level miss
        outcomes (conditional: ``miss2`` only applies if ``miss1``, etc.).
        """
        if not miss1:
            return self.levels["l1"].latency
        self._decay_traffic(cycle)
        queue = int(self.congestion_factor * self._traffic)
        self._traffic += 1.0
        if not miss2:
            return self.levels["l2"].latency + queue
        if not miss3:
            return self.levels["l3"].latency + queue * 2
        return self.memory.latency + queue * 3

    def expected_latency(
        self,
        l1_miss: float,
        l2_miss: float,
        l3_miss: float,
        congestion: float = 0.0,
    ) -> float:
        """Closed-form mean access latency for given miss rates.

        Used by the analytic throughput model; ``congestion`` is an extra
        cycles term applied to off-L1 accesses.
        """
        for name, p in (("l1_miss", l1_miss), ("l2_miss", l2_miss), ("l3_miss", l3_miss)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be a probability, got {p}")
        l1 = self.levels["l1"].latency
        l2 = self.levels["l2"].latency
        l3 = self.levels["l3"].latency
        mem = self.memory.latency
        hit1 = 1.0 - l1_miss
        hit2 = l1_miss * (1.0 - l2_miss)
        hit3 = l1_miss * l2_miss * (1.0 - l3_miss)
        miss = l1_miss * l2_miss * l3_miss
        return (
            hit1 * l1
            + hit2 * (l2 + congestion)
            + hit3 * (l3 + 2 * congestion)
            + miss * (mem + 3 * congestion)
        )

    def reset(self) -> None:
        """Clear congestion state (between measurement windows)."""
        self._traffic = 0.0
        self._last_cycle = 0
