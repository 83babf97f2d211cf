"""Standard vs. patched Linux kernel behaviour (paper section VI).

The stock 2.6.19.2 kernel uses hardware priorities defensively: it
*lowers* the priority of spinning/idle CPUs and *resets* it to MEDIUM on
every interrupt, exception or syscall entry ("the kernel simply resets
the priority to MEDIUM every time ... so that it can be sure that those
critical operations will be performed with enough resources"). That
reset silently destroys any priority a balancer installs.

The paper's patch (a) removes the reset and (b) adds the
``/proc/<PID>/hmt_priority`` file. :class:`StandardLinux` and
:class:`PatchedLinux` encode exactly this difference; the MPI runtime
calls the hooks at the corresponding simulated moments.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import ConfigurationError
from repro.kernel.hmt import Actor, HmtController
from repro.kernel.procfs import ProcFs
from repro.kernel.scheduler import PinnedScheduler
from repro.smt.priorities import DEFAULT_PRIORITY, HardwarePriority

__all__ = ["KernelModel", "StandardLinux", "PatchedLinux"]


class KernelModel:
    """Common state/hooks of the simulated kernels.

    Subclasses override the event hooks; all state manipulation goes
    through the privilege-checked :class:`HmtController`.
    """

    #: Priority the standard kernel gives an idle CPU (it lowers the idle
    #: thread and can eventually put the core in ST mode; LOW is the
    #: conservative model of the first step).
    IDLE_PRIORITY = HardwarePriority.LOW

    def __init__(self, hmt: HmtController, scheduler: PinnedScheduler) -> None:
        self.hmt = hmt
        self.scheduler = scheduler

    # -- identification ---------------------------------------------------

    @property
    def name(self) -> str:
        raise NotImplementedError

    @property
    def has_hmt_procfs(self) -> bool:
        """Does this kernel provide ``/proc/<PID>/hmt_priority``?"""
        return False

    @property
    def procfs(self) -> ProcFs:
        raise FileNotFoundError("/proc/<pid>/hmt_priority (kernel not patched)")

    # -- event hooks (called by the runtime) --------------------------------

    def on_interrupt_entry(self, cpu: int, time: float) -> None:
        """An interrupt/exception/syscall handler starts on ``cpu``."""

    def on_process_start(self, pid: int, cpu: int, time: float) -> None:
        """A process begins running on ``cpu``, at the default MEDIUM
        priority."""
        self.hmt.set_priority(cpu, int(DEFAULT_PRIORITY), Actor.OS, time, via="kernel")

    def on_cpu_idle(self, cpu: int, time: float) -> None:
        """``cpu`` enters the kernel idle loop (its process exited)."""
        # Both kernels lower the idle thread's priority so the sibling
        # context receives more resources (standard behaviour case 3).
        self.hmt.set_priority(cpu, int(self.IDLE_PRIORITY), Actor.OS, time, via="kernel")

    def set_static_priority(self, pid: int, priority: int, time: float) -> None:
        """Userspace sets ``pid``'s priority once, before the run: an
        unprivileged priority nop on this kernel (levels outside 2-4 are
        silently impossible)."""
        cpu = self.scheduler.cpu_of(pid)
        self.hmt.try_set_priority(cpu, priority, Actor.USER, time, via="or-nop")

    def launch(
        self,
        pins: Mapping[int, int],
        priorities: Optional[Mapping[int, int]] = None,
        time: float = 0.0,
    ) -> None:
        """Start a run's processes at ``time``: pin each ``pid -> cpu`` of
        ``pins`` and :meth:`on_process_start` it, in ``pins`` order, then
        :meth:`set_static_priority` each of ``priorities`` in pid order —
        mpirun, then the balancing script's ``echo N`` per rank."""
        pin = self.scheduler.pin
        for pid, cpu in pins.items():
            pin(pid, cpu)
            self.on_process_start(pid, cpu, time)
        if priorities:
            for pid, prio in sorted(priorities.items()):
                self.set_static_priority(pid, prio, time)


class StandardLinux(KernelModel):
    """Stock kernel: resets priorities to MEDIUM at every handler entry."""

    @property
    def name(self) -> str:
        return "linux-2.6.19.2"

    def on_interrupt_entry(self, cpu: int, time: float) -> None:
        # The kernel does not track the previous priority, so it cannot
        # restore it: it unconditionally resets to MEDIUM (section VI-A).
        if self.hmt.read_tsr(cpu) != DEFAULT_PRIORITY:
            self.hmt.set_priority(
                cpu, int(DEFAULT_PRIORITY), Actor.OS, time, via="kernel"
            )


class PatchedLinux(KernelModel):
    """The paper's kernel: priorities persist; procfs control available."""

    def __init__(self, hmt: HmtController, scheduler: PinnedScheduler) -> None:
        super().__init__(hmt, scheduler)
        self._procfs = ProcFs(hmt, scheduler)

    @property
    def name(self) -> str:
        return "linux-2.6.19.2-hmt-patch"

    @property
    def has_hmt_procfs(self) -> bool:
        return True

    @property
    def procfs(self) -> ProcFs:
        return self._procfs

    def on_interrupt_entry(self, cpu: int, time: float) -> None:
        # Patch point 1: the handler no longer touches the priority.
        pass

    def set_static_priority(self, pid: int, priority: int, time: float) -> None:
        """``echo N > /proc/<pid>/hmt_priority``, at OS privilege."""
        self._procfs.set_priority_of_pid(pid, priority, time=time)


def make_kernel(
    kind: str, hmt: HmtController, scheduler: PinnedScheduler
) -> KernelModel:
    """Factory: ``"standard"`` or ``"patched"``."""
    if kind == "standard":
        return StandardLinux(hmt, scheduler)
    if kind == "patched":
        return PatchedLinux(hmt, scheduler)
    raise ConfigurationError(f"unknown kernel kind {kind!r}; use 'standard' or 'patched'")
