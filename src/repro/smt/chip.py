"""The POWER5 chip: two SMT cores behind a shared L2/L3.

Hardware contexts are addressed two ways:

* ``(core, thread)`` pairs inside the SMT layer, and
* flat *logical CPU* ids 0..3, matching how Linux enumerates them and how
  the paper labels processes (``P1`` on ``CPU0`` = core 0 thread 0, ...).

:class:`Power5Chip` owns the cores and the translation between the two
addressings; the kernel scheduler and the MPI runtime talk logical CPUs.
A machine of several nodes is the same object with ``n_nodes`` chips'
cores in one flat list: node ``k`` owns global CPUs
``k * cpus_per_node ..`` and its cores form one ``core_groups`` entry,
the domain the throughput model couples over (a shared L2 never spans
nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.smt.core import CoreSnapshot, SmtCore
from repro.smt.instructions import LoadProfile
from repro.smt.priorities import HardwarePriority
from repro.util.units import POWER5_FREQ_HZ
from repro.util.validation import check_positive

__all__ = ["HardwareContextId", "ChipConfig", "Power5Chip"]


@dataclass(frozen=True, order=True)
class HardwareContextId:
    """Address of one hardware context: ``(core, thread)``."""

    core: int
    thread: int

    def __post_init__(self) -> None:
        if self.core < 0 or self.thread < 0:
            raise ConfigurationError(f"invalid hardware context {self}")

    @property
    def sibling(self) -> "HardwareContextId":
        """The other context on the same core."""
        return HardwareContextId(self.core, 1 - self.thread)

    def __str__(self) -> str:
        return f"core{self.core}.t{self.thread}"


@dataclass(frozen=True)
class ChipConfig:
    """Static chip parameters (the paper's machine is the default)."""

    n_cores: int = 2
    threads_per_core: int = 2
    freq_hz: float = POWER5_FREQ_HZ

    def __post_init__(self) -> None:
        check_positive("n_cores", self.n_cores)
        if self.threads_per_core != 2:
            raise ConfigurationError(
                "the POWER5 model supports exactly 2 threads per core"
            )
        check_positive("freq_hz", self.freq_hz)

    @property
    def n_cpus(self) -> int:
        """Number of logical CPUs the OS sees."""
        return self.n_cores * self.threads_per_core


class Power5Chip:
    """The :class:`~repro.smt.core.SmtCore` instances of one chip per
    node, addressed by global logical CPU (one node, the default, is the
    paper's machine).

    Examples
    --------
    >>> chip = Power5Chip()
    >>> chip.context_of_cpu(3)
    HardwareContextId(core=1, thread=1)
    >>> chip.cpu_of_context(HardwareContextId(1, 1))
    3
    >>> Power5Chip(n_nodes=2).core_groups
    [[0, 1], [2, 3]]
    """

    def __init__(self, config: Optional[ChipConfig] = None, n_nodes: int = 1) -> None:
        check_positive("n_nodes", n_nodes)
        self.config = config or ChipConfig()
        self.cpus_per_node = self.config.n_cpus
        self.n_cpus = n_nodes * self.cpus_per_node
        per_node = self.config.n_cores
        self.cores: List[SmtCore] = [SmtCore(i) for i in range(n_nodes * per_node)]
        #: Core indices per node: the throughput-coupling domains.
        self.core_groups: List[List[int]] = [
            list(range(k * per_node, (k + 1) * per_node)) for k in range(n_nodes)
        ]

    # -- addressing -----------------------------------------------------------

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.n_cpus:
            raise ConfigurationError(
                f"cpu must be in 0..{self.n_cpus - 1}, got {cpu}"
            )

    def node_of_cpu(self, cpu: int) -> int:
        """Which node hosts global CPU ``cpu``."""
        self._check_cpu(cpu)
        return cpu // self.cpus_per_node

    def context_of_cpu(self, cpu: int) -> HardwareContextId:
        """Translate a logical CPU id to ``(core, thread)``."""
        self._check_cpu(cpu)
        return HardwareContextId(cpu // 2, cpu % 2)

    def cpu_of_context(self, ctx: HardwareContextId) -> int:
        """Translate ``(core, thread)`` to a logical CPU id."""
        if not 0 <= ctx.core < len(self.cores) or ctx.thread not in (0, 1):
            raise ConfigurationError(f"invalid context {ctx} for this chip")
        return ctx.core * 2 + ctx.thread

    @property
    def cpus(self) -> List[int]:
        return list(range(self.n_cpus))

    # -- state access by logical CPU -------------------------------------------

    def priority(self, cpu: int) -> HardwarePriority:
        self._check_cpu(cpu)
        return self.cores[cpu // 2].priority(cpu % 2)

    def set_priority(self, cpu: int, priority: int) -> None:
        self._check_cpu(cpu)
        self.cores[cpu // 2].set_priority(cpu % 2, priority)

    def store_priority(self, cpu: int, priority: int) -> None:
        """Store a plain-int level the HMT gate already validated."""
        if not 0 <= cpu < self.n_cpus:
            self._check_cpu(cpu)  # raises
        self.cores[cpu // 2]._priorities[cpu % 2] = priority

    def load(self, cpu: int) -> Optional[LoadProfile]:
        ctx = self.context_of_cpu(cpu)
        return self.cores[ctx.core].load(ctx.thread)

    def set_load(self, cpu: int, profile: Optional[LoadProfile]) -> None:
        ctx = self.context_of_cpu(cpu)
        self.cores[ctx.core].set_load(ctx.thread, profile)

    # -- snapshots --------------------------------------------------------------

    def snapshot(self) -> Tuple[CoreSnapshot, ...]:
        """Per-core snapshots, the machine-level throughput key."""
        return tuple(core.snapshot() for core in self.cores)

    def reset(self) -> None:
        """Back to power-on defaults: MEDIUM priorities, no loads."""
        for core in self.cores:
            for t in (0, 1):
                core.set_priority(t, 4)
                core.set_load(t, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Power5Chip(cores={self.cores!r})"
