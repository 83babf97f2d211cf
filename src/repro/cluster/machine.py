"""ClusterMachine: several POWER5 chips behind one chip-like interface.

Global logical CPU ids run ``0 .. 4*n_nodes - 1``: node ``k`` owns CPUs
``4k .. 4k+3`` (with the default 2-core/2-thread chips). The facade
implements everything :class:`~repro.mpi.runtime.MpiRuntime`,
:class:`~repro.kernel.hmt.HmtController` and the kernel models use on a
single chip — ``cores`` (flattened), ``set_load``/``set_priority``/
``priority`` by global CPU, ``config.n_cpus`` — plus ``core_groups``,
which the runtime uses to keep the throughput model's shared-cache
coupling within each chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, ValidationError
from repro.smt.chip import ChipConfig, Power5Chip
from repro.smt.core import SmtCore
from repro.smt.instructions import LoadProfile
from repro.smt.priorities import HardwarePriority
from repro.util.fingerprint import fingerprint_doc
from repro.util.validation import check_positive

__all__ = ["ClusterConfig", "ClusterMachine"]

_CHIP_FIELDS = ("n_cores", "threads_per_core", "freq_hz")
_CLUSTER_FIELDS = ("n_nodes", "chip")


@dataclass(frozen=True)
class ClusterConfig:
    """A cluster of identical nodes."""

    n_nodes: int = 2
    chip: ChipConfig = field(default_factory=ChipConfig)

    def __post_init__(self) -> None:
        check_positive("n_nodes", self.n_nodes)

    @property
    def n_cpus(self) -> int:
        return self.n_nodes * self.chip.n_cpus

    @property
    def cpus_per_node(self) -> int:
        return self.chip.n_cpus

    #: The runtime only reads n_cpus and freq_hz from ``machine.config``.
    @property
    def freq_hz(self) -> float:
        return self.chip.freq_hz

    # -- wire format -----------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe document (round-trips through :meth:`from_doc`)."""
        return {
            "n_nodes": self.n_nodes,
            "chip": {
                "n_cores": self.chip.n_cores,
                "threads_per_core": self.chip.threads_per_core,
                "freq_hz": self.chip.freq_hz,
            },
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ClusterConfig":
        """Strict inverse of :meth:`to_doc` — unknown fields are rejected."""
        if not isinstance(doc, Mapping):
            raise ValidationError(
                f"cluster document must be a mapping, got {type(doc).__name__}"
            )
        unknown = sorted(set(doc) - set(_CLUSTER_FIELDS))
        if unknown:
            raise ValidationError(f"unknown cluster fields: {unknown}")
        n_nodes = doc.get("n_nodes", 2)
        if isinstance(n_nodes, bool) or not isinstance(n_nodes, int):
            raise ValidationError(
                f"cluster field 'n_nodes' must be an int, got {type(n_nodes).__name__}"
            )
        chip_doc = doc.get("chip", {})
        if not isinstance(chip_doc, Mapping):
            raise ValidationError(
                f"cluster field 'chip' must be a mapping, got {type(chip_doc).__name__}"
            )
        unknown = sorted(set(chip_doc) - set(_CHIP_FIELDS))
        if unknown:
            raise ValidationError(f"unknown chip fields: {unknown}")
        for name in ("n_cores", "threads_per_core"):
            value = chip_doc.get(name, 2)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(
                    f"chip field {name!r} must be an int, got {type(value).__name__}"
                )
        freq = chip_doc.get("freq_hz", ChipConfig.freq_hz)
        if isinstance(freq, bool) or not isinstance(freq, (int, float)):
            raise ValidationError(
                f"chip field 'freq_hz' must be a number, got {type(freq).__name__}"
            )
        try:
            chip = ChipConfig(
                n_cores=chip_doc.get("n_cores", 2),
                threads_per_core=chip_doc.get("threads_per_core", 2),
                freq_hz=float(freq),
            )
            return cls(n_nodes=n_nodes, chip=chip)
        except ConfigurationError as exc:
            raise ValidationError(f"invalid cluster document: {exc}") from exc

    @property
    def fingerprint(self) -> str:
        """Canonical content hash of :meth:`to_doc`."""
        return fingerprint_doc(self.to_doc())


class ClusterMachine:
    """Multi-chip machine with the single-chip surface on global CPUs."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.chips: List[Power5Chip] = [
            Power5Chip(self.config.chip) for _ in range(self.config.n_nodes)
        ]
        #: ``(chip, local cpu)`` per global CPU, resolved once.
        local = range(self.config.cpus_per_node)
        self._chip_cpus = [(chip, cpu) for chip in self.chips for cpu in local]

    # -- addressing ------------------------------------------------------------

    def node_of_cpu(self, cpu: int) -> int:
        """Which node hosts global CPU ``cpu``."""
        self._chip_cpu(cpu)  # bounds check
        return cpu // self.config.cpus_per_node

    def local_cpu(self, cpu: int) -> int:
        """The node-local CPU id of global CPU ``cpu``."""
        return self._chip_cpu(cpu)[1]

    @property
    def cpus(self) -> List[int]:
        return list(range(self.config.n_cpus))

    # -- chip-like surface (flattened cores + per-chip groups) -------------------

    @property
    def cores(self) -> List[SmtCore]:
        """All cores, flattened in node order (global core = global cpu // 2)."""
        out: List[SmtCore] = []
        for chip in self.chips:
            out.extend(chip.cores)
        return out

    @property
    def core_groups(self) -> List[List[int]]:
        """Core indices per chip — the throughput-coupling domains."""
        per_chip = self.config.chip.n_cores
        return [
            list(range(k * per_chip, (k + 1) * per_chip))
            for k in range(self.config.n_nodes)
        ]

    def _chip_cpu(self, cpu: int) -> Tuple[Power5Chip, int]:
        if not 0 <= cpu < len(self._chip_cpus):  # a bare index accepts -1
            raise ConfigurationError(
                f"cpu must be in 0..{len(self._chip_cpus) - 1}, got {cpu}"
            )
        return self._chip_cpus[cpu]

    def priority(self, cpu: int) -> HardwarePriority:
        chip, local = self._chip_cpu(cpu)
        return chip.priority(local)

    def set_priority(self, cpu: int, priority: int) -> None:
        chip, local = self._chip_cpu(cpu)
        chip.set_priority(local, priority)

    def store_priority(self, cpu: int, priority: int) -> None:
        chip, local = self._chip_cpu(cpu)
        chip.store_priority(local, priority)

    def load(self, cpu: int) -> Optional[LoadProfile]:
        chip, local = self._chip_cpu(cpu)
        return chip.load(local)

    def set_load(self, cpu: int, profile: Optional[LoadProfile]) -> None:
        chip, local = self._chip_cpu(cpu)
        chip.set_load(local, profile)

    def reset(self) -> None:
        for chip in self.chips:
            chip.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterMachine(n_nodes={self.config.n_nodes})"
