"""Bounded memoisation caches with hit/miss accounting.

The throughput models answer the same ``(load_a, load_b, prio_a,
prio_b)`` queries millions of times per experiment — MPI phase structure
makes machine-state tuples highly repetitive. :class:`LruCache` is the
shared infrastructure behind those memo layers: a plain
least-recently-used dict with a size bound (so cluster-scale sweeps
cannot grow memory without limit) and counters that let benchmarks and
:class:`~repro.core.search.SearchStats` report *effective* work (solves
actually performed) rather than just wall time.

A ``max_size`` of 0 disables the cache entirely — every lookup is a
miss and nothing is stored — which is how the equivalence tests compare
cached against uncached runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Optional, TypeVar

from repro.errors import ConfigurationError

# CacheStats moved to the telemetry layer (the reporting half of cache
# accounting); re-exported here because this was its original home.
from repro.telemetry.cache import CacheStats

__all__ = ["CacheStats", "LruCache"]

V = TypeVar("V")


class LruCache(Generic[V]):
    """A bounded mapping with least-recently-used eviction.

    Not thread-safe (the simulator is single-threaded per process); safe
    to pickle, so models carrying one can cross a process-pool boundary.
    """

    def __init__(
        self,
        max_size: int = 65536,
        sizeof: Optional[Callable[[V], int]] = None,
    ) -> None:
        if max_size < 0:
            raise ConfigurationError(f"max_size must be >= 0, got {max_size}")
        self.max_size = int(max_size)
        self._data: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Optional weigher: called once per insert, its results summed
        #: into :attr:`bytes` (and subtracted on eviction/replacement) so
        #: result caches can report how much payload they hold.
        self._sizeof = sizeof
        self._weights: "OrderedDict[Hashable, int]" = OrderedDict()
        self.bytes = 0

    @property
    def enabled(self) -> bool:
        return self.max_size > 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Optional[V]:
        """Return the cached value or ``None``, updating recency/stats."""
        hit = self._data.get(key)
        if hit is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return hit

    def put(self, key: Hashable, value: V) -> Optional[V]:
        """Insert ``value``, evicting the least-recently-used entry if
        full; returns the evicted value (``None`` when nothing left)."""
        if not self.enabled:
            return None
        if key in self._data:
            self._data.move_to_end(key)
            if self._sizeof is not None:
                self.bytes -= self._weights.pop(key, 0)
        self._data[key] = value
        if self._sizeof is not None:
            weight = int(self._sizeof(value))
            self._weights[key] = weight
            self.bytes += weight
        if len(self._data) > self.max_size:
            evicted, old = self._data.popitem(last=False)
            if self._sizeof is not None:
                self.bytes -= self._weights.pop(evicted, 0)
            return old
        return None

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            size=len(self._data),
            max_size=self.max_size,
            bytes=self.bytes,
        )

    def clear(self) -> None:
        """Drop all entries (keeps the hit/miss history)."""
        self._data.clear()
        self._weights.clear()
        self.bytes = 0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LruCache(size={len(self._data)}/{self.max_size}, "
            f"hits={self.hits}, misses={self.misses})"
        )
