"""The POWER5 chip: two SMT cores behind a shared L2/L3.

Hardware contexts are addressed by flat *logical CPU* id, matching how
Linux enumerates them and how the paper labels processes (``P1`` on
``CPU0`` = core 0 thread 0, ...): core ``i``'s two contexts are CPUs
``2i`` and ``2i + 1``.

:class:`Power5Chip` holds each context's state in one per-CPU slot: its
running load and its hardware priority. A machine of several nodes is
the same object with ``n_nodes`` chips' CPUs in one flat range: node
``k`` owns global CPUs ``k * cpus_per_node ..`` and its cores form one
``core_groups`` entry, the domain the throughput model couples over (a
shared L2 never spans nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.smt.instructions import LoadProfile
from repro.smt.priorities import DEFAULT_PRIORITY, HardwarePriority
from repro.util.validation import check_positive

__all__ = ["ChipConfig", "Power5Chip"]


@dataclass(frozen=True)
class ChipConfig:
    """Static chip parameters (the paper's machine is the default)."""

    n_cores: int = 2

    def __post_init__(self) -> None:
        check_positive("n_cores", self.n_cores)

    @property
    def n_cpus(self) -> int:
        """Number of logical CPUs the OS sees (two contexts per core)."""
        return 2 * self.n_cores


class Power5Chip:
    """Per-CPU hardware-context state of one chip per node, addressed by
    global logical CPU (one node, the default, is the paper's machine).

    ``loads[cpu]`` is the load profile running on that context (``None``
    when idle) and ``priorities[cpu]`` its hardware priority as a plain
    int; the MPI runtime writes the loads and the HMT gate the
    priorities.

    Examples
    --------
    >>> chip = Power5Chip()
    >>> chip.priorities, chip.loads
    ([4, 4, 4, 4], [None, None, None, None])
    >>> Power5Chip(n_nodes=2).core_groups
    [[0, 1], [2, 3]]
    """

    def __init__(self, config: Optional[ChipConfig] = None, n_nodes: int = 1) -> None:
        check_positive("n_nodes", n_nodes)
        self.config = config or ChipConfig()
        self.cpus_per_node = self.config.n_cpus
        self.n_cpus = n_nodes * self.cpus_per_node
        per_node = self.config.n_cores
        self.n_cores = n_nodes * per_node
        self.loads: List[Optional[LoadProfile]] = [None] * self.n_cpus
        self.priorities: List[int] = [int(DEFAULT_PRIORITY)] * self.n_cpus
        #: Core indices per node: the throughput-coupling domains.
        self.core_groups: List[List[int]] = [
            list(range(k * per_node, (k + 1) * per_node)) for k in range(n_nodes)
        ]

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.n_cpus:
            raise ConfigurationError(
                f"cpu must be in 0..{self.n_cpus - 1}, got {cpu}"
            )

    def node_of_cpu(self, cpu: int) -> int:
        """Which node hosts global CPU ``cpu``."""
        self._check_cpu(cpu)
        return cpu // self.cpus_per_node

    def priority(self, cpu: int) -> HardwarePriority:
        """Current hardware priority of ``cpu``."""
        self._check_cpu(cpu)
        return HardwarePriority(self.priorities[cpu])

    def store_priority(self, cpu: int, priority: int) -> None:
        """Store a plain-int level the HMT gate already validated."""
        if not 0 <= cpu < self.n_cpus:
            self._check_cpu(cpu)  # raises
        self.priorities[cpu] = priority

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [getattr(load, "name", None) for load in self.loads]
        return f"Power5Chip(priorities={self.priorities}, loads={names})"
