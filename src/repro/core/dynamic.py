"""Dynamic priority balancing — the paper's proposed future work.

Section VIII: *"We plan to extend our OS by introducing an algorithm that
will automatically detect if a process deserves an higher amount of
resources and which process should be deprived of those resources"* —
motivated by SIESTA, whose bottleneck migrates between iterations so any
static assignment is wrong part of the time.

:class:`DynamicBalancer` is a runtime *controller* (see
``MpiRuntime(controllers=...)``): every ``interval`` simulated seconds it
looks at each rank's waiting time over the last window and, per core
pair, shifts priority toward the rank that waited less (it is the
bottleneck), one step at a time, bounded to the OS range and a maximum
gap. Hysteresis avoids flapping on balanced pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ValidationError
from repro.kernel.hmt import Actor
from repro.trace.events import RankState

__all__ = ["DynamicBalancerConfig", "DynamicBalancer"]


@dataclass(frozen=True)
class DynamicBalancerConfig:
    """Controller parameters."""

    #: Seconds of simulated time between adjustments.
    interval: float = 2.0
    #: A pair is adjusted only if the window sync-fraction difference
    #: exceeds this (hysteresis).
    threshold: float = 0.08
    #: Bounds of the priorities the controller will set (OS range).
    min_priority: int = 3
    max_priority: int = 6
    #: Maximum per-core priority difference (the exponential-penalty guard).
    max_gap: int = 2

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {self.interval}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in [0,1], got {self.threshold}")
        if not 1 <= self.min_priority <= self.max_priority <= 6:
            raise ConfigurationError(
                f"need 1 <= min({self.min_priority}) <= max({self.max_priority}) <= 6"
            )
        if self.max_gap < 0 or self.max_gap > self.max_priority - self.min_priority:
            raise ConfigurationError(
                f"max_gap {self.max_gap} incompatible with priority bounds"
            )

    # -- serialisation (ScenarioSpec conventions: canonical doc, strict inverse) --

    _FLOAT_FIELDS = ("interval", "threshold")
    _INT_FIELDS = ("min_priority", "max_priority", "max_gap")

    def to_doc(self) -> dict:
        """Canonical document form — the fingerprint substrate for dynamic policies."""
        doc: dict = {name: float(getattr(self, name)) for name in self._FLOAT_FIELDS}
        doc.update({name: int(getattr(self, name)) for name in self._INT_FIELDS})
        return doc

    @classmethod
    def from_doc(cls, doc: object) -> "DynamicBalancerConfig":
        """Strict inverse of :meth:`to_doc`: unknown fields raise.

        All fields are optional (they carry defaults), but anything not
        in the schema is rejected so a typo'd knob cannot silently fall
        back to the default.
        """
        if not isinstance(doc, dict):
            raise ValidationError(
                f"dynamic-balancer config must be a JSON object, got {doc!r}"
            )
        known = cls._FLOAT_FIELDS + cls._INT_FIELDS
        unknown = set(doc) - set(known)
        if unknown:
            raise ValidationError(
                f"unknown dynamic-balancer config fields: {sorted(unknown)}"
            )
        kwargs: dict = {}
        try:
            for name in cls._FLOAT_FIELDS:
                if name in doc:
                    kwargs[name] = float(doc[name])
            for name in cls._INT_FIELDS:
                if name in doc:
                    kwargs[name] = int(doc[name])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed dynamic-balancer config: {exc}") from exc
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            raise ValidationError(f"invalid dynamic-balancer config: {exc}") from exc


class DynamicBalancer:
    """Feedback controller over per-rank waiting time.

    Satisfies the runtime controller protocol (``interval`` attribute +
    ``on_tick(runtime, now)``). All priority writes go through the
    privilege-checked controller at OS level — this *is* the "extend our
    OS" of the paper's conclusion.
    """

    def __init__(self, config: Optional[DynamicBalancerConfig] = None) -> None:
        self.config = config or DynamicBalancerConfig()
        self._last_sync: Dict[int, float] = {}
        self._last_time = 0.0
        #: Rank pairs sharing a core, in core order; set at the first tick.
        self._pairs: Optional[List[Tuple[int, int]]] = None
        #: (time, rank, old, new) log of adjustments, for analysis.
        self.adjustments: List[Tuple[float, int, int, int]] = []

    @property
    def interval(self) -> float:
        return self.config.interval

    def reset(self) -> None:
        self._last_sync.clear()
        self._last_time = 0.0
        self._pairs = None
        self.adjustments.clear()

    # -- observation -----------------------------------------------------------

    def _window_sync_fractions(self, runtime, now: float) -> Dict[int, float]:
        window = now - self._last_time
        fractions: Dict[int, float] = {}
        for tl in runtime.trace:
            # O(1) per rank: one state reads the timeline's running total.
            total = tl.time_in_until(now, RankState.SYNC)
            prev = self._last_sync.get(tl.rank, 0.0)
            fractions[tl.rank] = (total - prev) / window if window > 0 else 0.0
            self._last_sync[tl.rank] = total
        self._last_time = now
        return fractions

    # -- decision ---------------------------------------------------------------

    def on_tick(self, runtime, now: float) -> None:
        """One control step: rebalance every core pair."""
        cfg = self.config
        sync = self._window_sync_fractions(runtime, now)
        if self._pairs is None:
            by_core: Dict[int, List[int]] = {}
            for rank, cpu in runtime.mapping.items():
                by_core.setdefault(cpu // 2, []).append(rank)
            self._pairs = [tuple(r) for _, r in sorted(by_core.items()) if len(r) == 2]
        for a, b in self._pairs:
            # The rank that waited more is over-resourced; the one that
            # waited less is the (local) bottleneck.
            waiter, busy = (a, b) if sync[a] >= sync[b] else (b, a)
            diff = sync[waiter] - sync[busy]
            prio_w = int(runtime.chip.priority(runtime.mapping[waiter]))
            prio_b = int(runtime.chip.priority(runtime.mapping[busy]))
            if diff > cfg.threshold:
                # Widen the gap in favour of the bottleneck, one step.
                if prio_b - prio_w < cfg.max_gap:
                    if prio_b < cfg.max_priority:
                        self._set(runtime, busy, prio_b + 1, now)
                    elif prio_w > cfg.min_priority:
                        self._set(runtime, waiter, prio_w - 1, now)
            else:
                # Balanced window: relax any existing gap by one step.
                if prio_b > prio_w:
                    self._set(runtime, busy, prio_b - 1, now)
                elif prio_w > prio_b:
                    self._set(runtime, waiter, prio_w - 1, now)

    def _set(self, runtime, rank: int, new_priority: int, now: float) -> None:
        cpu = runtime.mapping[rank]
        old = int(runtime.chip.priority(cpu))
        if old == new_priority:
            return
        runtime.hmt.set_priority(cpu, new_priority, Actor.OS, time=now, via="dynamic")
        self.adjustments.append((now, rank, old, new_priority))
