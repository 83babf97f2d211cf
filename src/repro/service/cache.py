"""Content-addressed result cache with in-flight request coalescing.

Results are keyed by :attr:`JobSpec.fingerprint` — a sha256 over the
physics-determining fields of the request, which for scenario-kind specs
embeds the scenario's own fingerprint
(:attr:`~repro.scenarios.ScenarioSpec.fingerprint`). The simulator
is deterministic, so a fingerprint names exactly one trace digest and a
stored :class:`~repro.service.jobs.JobResult` can be served forever
(bounded by LRU eviction, not TTL).

Coalescing closes the stampede window the store-after-compute pattern
leaves open: the first submission of a fingerprint becomes the *leader*
and actually runs; submissions of the same fingerprint that arrive while
it is in flight register as *followers* and are fulfilled by the
leader's single result — N identical concurrent requests cost one
simulation and one queue slot.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.service.jobs import Job, JobResult
from repro.util.memo import LruCache

__all__ = ["InFlight", "ResultCache"]


def _result_weight(result: JobResult) -> int:
    """Approximate stored payload size: the serialised JSON byte count."""
    return len(json.dumps(result.to_doc(), sort_keys=True).encode("utf-8"))


@dataclass
class InFlight:
    """One fingerprint currently being computed, plus its followers."""

    leader: Job
    followers: List[Job] = field(default_factory=list)


class ResultCache:
    """Thread-safe LRU of :class:`JobResult` + the in-flight registry."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 0:
            raise ConfigurationError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        self._lock = threading.RLock()
        self._lru: LruCache[JobResult] = LruCache(
            max_size=max_entries, sizeof=_result_weight
        )
        self._inflight: Dict[str, InFlight] = {}
        self.coalesced = 0
        self.inserts = 0

    # -- stored results --------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[JobResult]:
        with self._lock:
            return self._lru.get(fingerprint)

    def put(self, fingerprint: str, result: JobResult) -> None:
        with self._lock:
            self._lru.put(fingerprint, result)
            self.inserts += 1

    def clear(self) -> None:
        with self._lock:
            self._lru.clear()

    # -- in-flight coalescing --------------------------------------------------

    def claim(self, job: Job) -> Tuple[str, Optional[JobResult]]:
        """Atomically route a submission by its fingerprint.

        Returns ``("cache", result)`` when the result is already stored,
        ``("leader", None)`` when ``job`` must run it (and the flight is
        now registered), or ``("follower", None)`` when it was attached
        to an identical in-flight computation. Atomic under the cache
        lock, so the lookup can never race a leader's settle into a
        duplicate run of a just-stored fingerprint.
        """
        fp = job.spec.fingerprint
        with self._lock:
            hit = self._lru.get(fp)
            if hit is not None:
                return "cache", hit
            entry = self._inflight.get(fp)
            if entry is None:
                self._inflight[fp] = InFlight(leader=job)
                return "leader", None
            entry.followers.append(job)
            self.coalesced += 1
            return "follower", None

    def settle(
        self, fingerprint: str, result: Optional[JobResult]
    ) -> Tuple[Job, List[Job]]:
        """Close a fingerprint's flight, storing ``result`` if successful.

        Returns ``(leader, followers)`` so the executor can move every
        attached job to its terminal state (shared result on success,
        shared error on failure — a follower never silently re-runs).
        """
        with self._lock:
            entry = self._inflight.pop(fingerprint, None)
            if entry is None:
                raise ConfigurationError(
                    f"settle() of a fingerprint not in flight: {fingerprint!r}"
                )
            if result is not None:
                self._lru.put(fingerprint, result)
                self.inserts += 1
            return entry.leader, entry.followers

    def in_flight(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- accounting ------------------------------------------------------------

    def bind_telemetry(self, registry) -> None:
        """Expose the result cache through pull-based instruments: the
        standard cache family (labelled ``cache="results"``) plus the
        coalescing counters this cache uniquely has."""
        from repro.telemetry import register_cache_metrics

        register_cache_metrics(
            registry, "results", lambda: self._lru.stats()
        )
        registry.counter(
            "repro_cache_coalesced_total",
            "Submissions attached to an identical in-flight computation.",
        ).set_function(lambda: self.coalesced)
        registry.counter(
            "repro_cache_inserts_total", "Results stored into the cache."
        ).set_function(lambda: self.inserts)
        registry.gauge(
            "repro_cache_in_flight", "Fingerprints currently being computed."
        ).set_function(self.in_flight)

    def stats(self) -> dict:
        """Cache accounting in the shape ``repro cache info`` reports."""
        with self._lock:
            st = self._lru.stats()
            return {
                "entries": st.size,
                "max_entries": st.max_size,
                "bytes": st.bytes,
                "hits": st.hits,
                "misses": st.misses,
                "hit_rate": st.hit_rate,
                "coalesced": self.coalesced,
                "inserts": self.inserts,
                "in_flight": len(self._inflight),
            }
