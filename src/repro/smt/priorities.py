"""Hardware thread priorities of the IBM POWER5 (paper Table I).

Each SMT context of a POWER5 core carries a *hardware thread priority*,
an integer 0..7, independent of the OS notion of scheduling priority:

====== ================= ================ ===============
 Prio   Level             Privilege        or-nop inst.
====== ================= ================ ===============
 0      Thread shut off   Hypervisor       --
 1      Very low          Supervisor       ``or 31,31,31``
 2      Low               User             ``or 1,1,1``
 3      Medium-low        User             ``or 6,6,6``
 4      Medium (default)  User             ``or 2,2,2``
 5      Medium-high       Supervisor       ``or 5,5,5``
 6      High              Supervisor       ``or 3,3,3``
 7      Very high         Hypervisor       ``or 7,7,7``
====== ================= ================ ===============

The priority is set either by executing one of the ``or Rx,Rx,Rx``
no-op-like instructions above, or by an ``mtspr`` write to the Thread
Status Register; both are modelled at the :mod:`repro.kernel.hmt` layer.
This module is the pure architectural definition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import InvalidPriorityError

__all__ = [
    "HardwarePriority",
    "PrivilegeLevel",
    "PriorityLevelInfo",
    "PRIORITY_TABLE",
    "DEFAULT_PRIORITY",
    "or_nop_for_priority",
    "priority_for_or_nop",
    "required_privilege",
    "can_set_priority",
    "validate_priority",
]


class HardwarePriority(enum.IntEnum):
    """The eight architectural hardware thread priority levels."""

    THREAD_OFF = 0
    VERY_LOW = 1
    LOW = 2
    MEDIUM_LOW = 3
    MEDIUM = 4
    MEDIUM_HIGH = 5
    HIGH = 6
    VERY_HIGH = 7

    @property
    def label(self) -> str:
        """Paper-style label (``Medium-low``, ``Thread shut off``, ...)."""
        return PRIORITY_TABLE[int(self)].label


class PrivilegeLevel(enum.IntEnum):
    """Who may *set* a given priority; higher value = more privileged."""

    USER = 0
    SUPERVISOR = 1  # the operating system
    HYPERVISOR = 2

    @property
    def label(self) -> str:
        return {0: "User", 1: "Supervisor", 2: "Hypervisor"}[int(self)]


@dataclass(frozen=True)
class PriorityLevelInfo:
    """One row of paper Table I."""

    priority: int
    label: str
    privilege: PrivilegeLevel
    #: Register number X of the ``or X,X,X`` encoding; ``None`` for priority 0,
    #: which has no instruction encoding (the thread is off).
    or_nop_register: Optional[int]

    @property
    def or_nop_mnemonic(self) -> Optional[str]:
        if self.or_nop_register is None:
            return None
        r = self.or_nop_register
        return f"or {r},{r},{r}"


#: Paper Table I, keyed by priority value.
PRIORITY_TABLE: Dict[int, PriorityLevelInfo] = {
    0: PriorityLevelInfo(0, "Thread shut off", PrivilegeLevel.HYPERVISOR, None),
    1: PriorityLevelInfo(1, "Very low", PrivilegeLevel.SUPERVISOR, 31),
    2: PriorityLevelInfo(2, "Low", PrivilegeLevel.USER, 1),
    3: PriorityLevelInfo(3, "Medium-low", PrivilegeLevel.USER, 6),
    4: PriorityLevelInfo(4, "Medium", PrivilegeLevel.USER, 2),
    5: PriorityLevelInfo(5, "Medium-high", PrivilegeLevel.SUPERVISOR, 5),
    6: PriorityLevelInfo(6, "High", PrivilegeLevel.SUPERVISOR, 3),
    7: PriorityLevelInfo(7, "Very high", PrivilegeLevel.HYPERVISOR, 7),
}

#: The default priority a context runs at (``MEDIUM``); the kernel resets
#: priorities to this value on interrupt/syscall entry (paper section VI-A).
DEFAULT_PRIORITY: HardwarePriority = HardwarePriority.MEDIUM


#: Members by value, indexed by :func:`validate_priority`.
_BY_VALUE = tuple(HardwarePriority)


def validate_priority(value: int) -> HardwarePriority:
    """Coerce ``value`` to :class:`HardwarePriority` or raise.

    Raises
    ------
    InvalidPriorityError
        If ``value`` is not an integer in 0..7 (booleans rejected).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidPriorityError(value)
    if not 0 <= value <= 7:
        raise InvalidPriorityError(value)
    return _BY_VALUE[value]


def or_nop_for_priority(priority: int) -> str:
    """Return the ``or X,X,X`` mnemonic that sets ``priority``.

    Raises
    ------
    InvalidPriorityError
        For out-of-range values, or for priority 0 which has no encoding.
    """
    prio = validate_priority(priority)
    info = PRIORITY_TABLE[int(prio)]
    if info.or_nop_mnemonic is None:
        raise InvalidPriorityError(priority)
    return info.or_nop_mnemonic


def priority_for_or_nop(register: int) -> HardwarePriority:
    """Inverse mapping: which priority does ``or register,register,register`` set?

    Raises
    ------
    InvalidPriorityError
        If ``register`` is not one of the special nop registers.
    """
    for info in PRIORITY_TABLE.values():
        if info.or_nop_register == register:
            return HardwarePriority(info.priority)
    raise InvalidPriorityError(register)


def required_privilege(priority: int) -> PrivilegeLevel:
    """The minimum privilege level allowed to set ``priority``."""
    prio = validate_priority(priority)
    return PRIORITY_TABLE[int(prio)].privilege


def can_set_priority(privilege: PrivilegeLevel, priority: int) -> bool:
    """True if an actor at ``privilege`` may set ``priority``.

    Encodes the paper's rules: user software only 2-4; the OS additionally
    1, 5 and 6; the hypervisor everything including 0 and 7.
    """
    return privilege >= required_privilege(priority)
