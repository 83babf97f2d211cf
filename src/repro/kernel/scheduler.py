"""Process placement: a pinning scheduler mapping PIDs to logical CPUs.

The paper runs exactly one MPI rank per logical CPU ("process Pi is
assigned to CPUi") — HPC practice on SMT machines. The scheduler is
therefore a bijective pin table; there is no time-sharing to model. It
still earns its keep: the kernel pins each rank through it at launch,
and the procfs interface and static priority writes resolve PIDs to
CPUs through it. (An exiting rank's CPU reaches the kernel's idle hook
from the MPI runtime, not from this table.)
"""

from __future__ import annotations

from typing import Dict

from repro.errors import MappingError

__all__ = ["PinnedScheduler"]


class PinnedScheduler:
    """Bijective PID -> logical-CPU pin table."""

    def __init__(self, n_cpus: int) -> None:
        if n_cpus <= 0:
            raise MappingError(f"n_cpus must be > 0, got {n_cpus}")
        self.n_cpus = n_cpus
        self._pid_to_cpu: Dict[int, int] = {}
        self._cpu_to_pid: Dict[int, int] = {}

    def pin(self, pid: int, cpu: int) -> None:
        """Pin ``pid`` to ``cpu``; both must be free."""
        if not 0 <= cpu < self.n_cpus:
            raise MappingError(f"cpu {cpu} out of range 0..{self.n_cpus - 1}")
        if pid in self._pid_to_cpu:
            raise MappingError(f"pid {pid} already pinned to cpu {self._pid_to_cpu[pid]}")
        if cpu in self._cpu_to_pid:
            raise MappingError(f"cpu {cpu} already runs pid {self._cpu_to_pid[cpu]}")
        self._pid_to_cpu[pid] = cpu
        self._cpu_to_pid[cpu] = pid

    def cpu_of(self, pid: int) -> int:
        """The CPU ``pid`` is pinned to."""
        try:
            return self._pid_to_cpu[pid]
        except KeyError:
            raise MappingError(f"pid {pid} is not pinned") from None

    def __contains__(self, pid: int) -> bool:
        return pid in self._pid_to_cpu
