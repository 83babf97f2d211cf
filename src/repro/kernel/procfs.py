"""The paper's ``/proc/<PID>/hmt_priority`` interface (section VI-B).

The kernel patch exposes one pseudo-file per process; writing ``N`` to it
sets the hardware priority of the CPU running that process, at *kernel*
privilege — this is exactly how userspace gains access to priorities
1, 5 and 6 that the hardware would refuse from user code:

    echo N > /proc/<PID>/hmt_priority

:class:`ProcFs` implements path parsing, value validation and the
delegation to :class:`~repro.kernel.hmt.HmtController` at OS privilege.
Only a *patched* kernel installs it; asking a standard kernel for the
file raises ``FileNotFoundError`` like the real ``open()`` would.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import InvalidPriorityError, PrivilegeError
from repro.kernel.hmt import Actor, HmtController
from repro.kernel.scheduler import PinnedScheduler

__all__ = ["ProcFs"]

_PATH_RE = re.compile(r"^/proc/(\d+)/hmt_priority$")


class ProcFs:
    """Minimal procfs: just the ``hmt_priority`` files the patch adds."""

    def __init__(self, hmt: HmtController, scheduler: PinnedScheduler) -> None:
        self._hmt = hmt
        self._scheduler = scheduler

    @staticmethod
    def path_for(pid: int) -> str:
        """The pseudo-file path for ``pid``."""
        return f"/proc/{pid}/hmt_priority"

    def _resolve(self, path: str) -> int:
        m = _PATH_RE.match(path)
        if m is None:
            raise FileNotFoundError(path)
        pid = int(m.group(1))
        if pid not in self._scheduler:
            raise FileNotFoundError(path)
        return pid

    def write(self, path: str, value: str, time: float = 0.0) -> None:
        """``echo value > path``.

        Raises
        ------
        FileNotFoundError
            Unknown path or PID.
        InvalidPriorityError
            Value that does not parse to an integer 0..7.
        PrivilegeError
            Priorities 0 and 7 — the patch runs at OS privilege, which
            cannot span the hypervisor-only levels.
        """
        try:
            prio = int(value.strip())
        except ValueError:
            raise InvalidPriorityError(value) from None
        self._set(self._resolve(path), prio, time)

    def _set(self, pid: int, prio: int, time: float) -> None:
        cpu = self._scheduler.cpu_of(pid)
        self._hmt.set_priority(cpu, prio, Actor.OS, time=time, via="procfs")

    def read(self, path: str) -> str:
        """``cat path`` — the current priority, newline-terminated."""
        pid = self._resolve(path)
        cpu = self._scheduler.cpu_of(pid)
        return f"{int(self._hmt.read_tsr(cpu))}\n"

    def set_priority_of_pid(self, pid: int, priority: int, time: float = 0.0) -> None:
        """Convenience wrapper used by balancers: :meth:`write` to ``pid``'s
        pseudo-file. A plain ``int`` priority for a known plain ``int`` pid
        skips formatting and re-parsing the text; the outcome is the same."""
        if (type(priority) is not int or type(pid) is not int or pid < 0
                or pid not in self._scheduler):
            return self.write(self.path_for(pid), str(priority), time=time)
        self._set(pid, priority, time)
