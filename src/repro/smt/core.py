"""SMT core state: two hardware contexts, their priorities and loads.

:class:`SmtCore` is the *state holder* the kernel layer manipulates
(priority writes, context on/off) and the throughput models read. The
cycle-by-cycle execution lives in :mod:`repro.smt.pipeline`; the
fluid-rate MPI runtime never steps a core directly — it asks a throughput
model for rates given a :class:`CoreSnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.smt.decode import ArbitrationMode, decode_allocation
from repro.smt.instructions import LoadProfile
from repro.smt.priorities import DEFAULT_PRIORITY, HardwarePriority, validate_priority

__all__ = ["CoreSnapshot", "SmtCore"]


@dataclass(frozen=True)
class CoreSnapshot:
    """Immutable view of a core's configuration at an instant.

    Used as (part of) the memoisation key for throughput lookups, so it
    must be hashable and value-semantic.
    """

    priorities: Tuple[int, int]
    load_names: Tuple[Optional[str], Optional[str]]

    @property
    def mode(self) -> ArbitrationMode:
        return decode_allocation(*self.priorities).mode

    @property
    def active_threads(self) -> int:
        """Number of contexts that are on *and* have work."""
        return sum(
            1
            for prio, load in zip(self.priorities, self.load_names)
            if prio > 0 and load is not None
        )


class SmtCore:
    """One 2-way SMT core: per-context priority and current load profile.

    Parameters
    ----------
    core_id:
        Index of this core within its chip.
    """

    N_CONTEXTS = 2

    def __init__(self, core_id: int = 0) -> None:
        if core_id < 0:
            raise ConfigurationError(f"core_id must be >= 0, got {core_id}")
        self.core_id = core_id
        #: Plain int levels; the accessors hand out HardwarePriority members.
        self._priorities: List[int] = [int(DEFAULT_PRIORITY)] * 2
        self._loads: List[Optional[LoadProfile]] = [None, None]

    def _check_context(self, context: int) -> int:
        if context not in (0, 1):
            raise ConfigurationError(
                f"core {self.core_id}: context must be 0 or 1, got {context}"
            )
        return context

    # -- priorities ---------------------------------------------------------

    def priority(self, context: int) -> HardwarePriority:
        """Current hardware priority of ``context``."""
        return HardwarePriority(self._priorities[self._check_context(context)])

    @property
    def priorities(self) -> Tuple[HardwarePriority, HardwarePriority]:
        return tuple(map(HardwarePriority, self._priorities))

    def set_priority(self, context: int, priority: int) -> None:
        """Set ``context``'s hardware priority (no privilege check here;
        privilege is enforced by :mod:`repro.kernel.hmt`)."""
        self._priorities[self._check_context(context)] = int(validate_priority(priority))

    # -- loads ----------------------------------------------------------------

    def load(self, context: int) -> Optional[LoadProfile]:
        """The load profile currently executing on ``context`` (None = idle)."""
        return self._loads[self._check_context(context)]

    def set_load(self, context: int, profile: Optional[LoadProfile]) -> None:
        """Install (or clear, with ``None``) the running load on ``context``."""
        ctx = self._check_context(context)
        if profile is not None and not isinstance(profile, LoadProfile):
            raise TypeError(f"profile must be LoadProfile or None, got {type(profile).__name__}")
        self._loads[ctx] = profile

    # -- derived -------------------------------------------------------------

    @property
    def mode(self) -> ArbitrationMode:
        """Current decode arbitration regime."""
        return decode_allocation(self._priorities[0], self._priorities[1]).mode

    @property
    def single_thread_mode(self) -> bool:
        """True if exactly one context is shut off (priority 0)."""
        return self.mode in (
            ArbitrationMode.SINGLE_THREAD,
            ArbitrationMode.SINGLE_THREAD_SLOW,
        )

    def snapshot(self) -> CoreSnapshot:
        """Hashable view for throughput memoisation."""
        return CoreSnapshot(
            priorities=(self._priorities[0], self._priorities[1]),
            load_names=tuple(
                load.name if load is not None else None for load in self._loads
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SmtCore(id={self.core_id}, prios={tuple(self._priorities)}, "
            f"loads={[getattr(l, 'name', None) for l in self._loads]})"
        )
