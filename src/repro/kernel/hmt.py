"""Hardware-thread-priority control with POWER5 privilege enforcement.

The chip itself (:class:`repro.smt.chip.Power5Chip`) will store any
priority 0-7; *who* may request which value is a software contract
(paper Table I): user code 2-4, the OS additionally 1, 5, 6, the
hypervisor 0 and 7. :class:`HmtController` is the single gate through
which every priority write in the simulation flows, so experiments can
also audit the history of writes.

Both hardware interfaces are modelled: the ``or Rx,Rx,Rx`` nop encoding
and the ``mtspr`` write to the Thread Status Register.
"""

from __future__ import annotations

import enum
import functools
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import PrivilegeError
from repro.smt.chip import Power5Chip
from repro.smt.priorities import (
    PRIORITY_TABLE,
    HardwarePriority,
    PrivilegeLevel,
    can_set_priority,
    priority_for_or_nop,
    validate_priority,
)

__all__ = ["Actor", "PriorityWrite", "HmtController"]


class Actor(enum.Enum):
    """Software actors, each with a fixed privilege level."""

    USER = "user"
    OS = "os"
    HYPERVISOR = "hypervisor"

    #: Singletons: hash by identity, not by Enum's hash of the name.
    __hash__ = object.__hash__

    @property
    def privilege(self) -> PrivilegeLevel:
        return {
            Actor.USER: PrivilegeLevel.USER,
            Actor.OS: PrivilegeLevel.SUPERVISOR,
            Actor.HYPERVISOR: PrivilegeLevel.HYPERVISOR,
        }[self]


#: The levels each actor may set (paper Table I) as plain ints,
#: tabulated once so the write gate is a set lookup.
_ALLOWED = {
    actor: frozenset(p for p in PRIORITY_TABLE if can_set_priority(actor.privilege, p))
    for actor in Actor
}


class PriorityWrite(NamedTuple):
    """Audit record of one successful priority write (immutable)."""

    time: float
    cpu: int
    priority: int
    actor: Actor
    via: str  # "or-nop" | "mtspr" | "kernel"


#: ``PriorityWrite`` from a tuple of its fields, without the named
#: tuple's Python-level ``__new__`` (one record per write).
_record = functools.partial(tuple.__new__, PriorityWrite)


class HmtController:
    """Privilege-checked access to the chip's hardware thread priorities."""

    def __init__(self, chip: Power5Chip) -> None:
        self.chip = chip
        self.history: List[PriorityWrite] = []

    def set_priority(
        self,
        cpu: int,
        priority: int,
        actor: Actor,
        time: float = 0.0,
        via: str = "mtspr",
    ) -> None:
        """Set the priority of logical CPU ``cpu``, enforcing privilege.

        Raises
        ------
        PrivilegeError
            If ``actor`` lacks the privilege for ``priority``; the write
            does not happen (the real hardware treats the or-nop as a
            plain nop in that case — callers who want silent-nop
            semantics use :meth:`try_set_priority`).
        """
        allowed = _ALLOWED[actor]
        if type(priority) is not int or priority not in allowed:
            # Not a plain allowed int: full validation, then the same set.
            priority = int(validate_priority(priority))
            if priority not in allowed:
                span = f"{min(allowed)}-{max(allowed)}"
                raise PrivilegeError(actor.value, priority, span)
        self.chip.store_priority(cpu, priority)
        self.history.append(_record((time, cpu, priority, actor, via)))

    def try_set_priority(
        self,
        cpu: int,
        priority: int,
        actor: Actor,
        time: float = 0.0,
        via: str = "or-nop",
    ) -> bool:
        """Like :meth:`set_priority` but a privilege violation is a no-op
        (the hardware behaviour of an unprivileged priority nop)."""
        try:
            self.set_priority(cpu, priority, actor, time, via)
            return True
        except PrivilegeError:
            return False

    def or_nop(self, cpu: int, register: int, actor: Actor, time: float = 0.0) -> bool:
        """Execute ``or register,register,register`` on ``cpu``.

        Returns True if the priority changed (False for an unprivileged
        attempt, which the hardware executes as a plain nop).
        """
        prio = priority_for_or_nop(register)
        return self.try_set_priority(cpu, int(prio), actor, time, via="or-nop")

    def or_nop_priority(self, cpu: int, priority: int, time: float = 0.0) -> bool:
        """Set ``priority`` from *user* code via its nop encoding.

        The convenience entry point for in-program priority changes: user
        privilege, silent no-op when the level is supervisor/hypervisor
        only — the hardware's behaviour for an unprivileged priority nop.
        """
        return self.try_set_priority(cpu, priority, Actor.USER, time, via="or-nop")

    def read_tsr(self, cpu: int) -> HardwarePriority:
        """Read the thread's current priority (the ``mfspr`` TSR path)."""
        return self.chip.priority(cpu)

    def priorities(self) -> Tuple[HardwarePriority, ...]:
        """All logical CPUs' current priorities, by cpu id."""
        return tuple(map(HardwarePriority, self.chip.priorities))

    def last_write(self, cpu: Optional[int] = None) -> Optional[PriorityWrite]:
        """Most recent write (optionally restricted to one cpu)."""
        for w in reversed(self.history):
            if cpu is None or w.cpu == cpu:
                return w
        return None
