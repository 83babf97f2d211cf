"""Balancing data model: priority assignments and the balancer interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping
from repro.smt.priorities import validate_priority

__all__ = ["DEFAULT_PRIORITIES", "PriorityAssignment", "Balancer"]

_new = object.__new__


def DEFAULT_PRIORITIES(n_ranks: int) -> Dict[int, int]:
    """The unbalanced reference: every rank at MEDIUM (4)."""
    if n_ranks <= 0:
        raise ConfigurationError(f"n_ranks must be > 0, got {n_ranks}")
    return {r: 4 for r in range(n_ranks)}


@dataclass(frozen=True)
class PriorityAssignment:
    """A complete balancing decision: who shares a core, at what priority.

    This is the object the paper's tables denote by their (mapping,
    priority) columns — e.g. BT-MZ case D is mapping P1+P4/P2+P3 with
    priorities (4, 4, 5, 6).
    """

    mapping: ProcessMapping
    priorities: Tuple[Tuple[int, int], ...]  # (rank, priority), sorted
    label: str = ""

    @classmethod
    def build(
        cls,
        mapping: ProcessMapping,
        priorities: Mapping[int, int],
        label: str = "",
    ) -> "PriorityAssignment":
        return cls(mapping, tuple(sorted(priorities.items())), label)

    @classmethod
    def _trusted(
        cls,
        mapping: ProcessMapping,
        priorities: Tuple[Tuple[int, int], ...],
        label: str = "",
    ) -> "PriorityAssignment":
        """The same record for ``priorities`` the caller built sorted,
        one per rank of ``mapping``, from checked OS-settable levels (the
        search grammar), without the frozen ``__init__`` and its re-check."""
        assignment = _new(cls)
        fields = assignment.__dict__
        fields["mapping"] = mapping
        fields["priorities"] = priorities
        fields["label"] = label
        return assignment

    def __post_init__(self) -> None:
        ranks = [r for r, _ in self.priorities]
        if sorted(ranks) != list(range(self.mapping.n_ranks)):
            raise ConfigurationError(
                f"priorities must cover ranks 0..{self.mapping.n_ranks - 1}, got {ranks}"
            )
        for rank, prio in self.priorities:
            validate_priority(prio)
            if prio in (0, 7):
                raise ConfigurationError(
                    f"rank {rank}: priorities 0 and 7 are hypervisor-only; "
                    "a balancer (OS level) may use 1-6"
                )

    @property
    def priority_dict(self) -> Dict[int, int]:
        return dict(self.priorities)

    def priority_of(self, rank: int) -> int:
        return self.priority_dict[rank]

    def core_gaps(self) -> Dict[int, int]:
        """Priority difference per core (favoured minus penalised)."""
        prios = self.priority_dict
        gaps: Dict[int, int] = {}
        for core, pair in enumerate(self.mapping.core_pairs()):
            if len(pair) == 2:
                gaps[core] = abs(prios[pair[0]] - prios[pair[1]])
            else:
                gaps[core] = 0
        return gaps

    @property
    def max_gap(self) -> int:
        gaps = self.core_gaps()
        return max(gaps.values()) if gaps else 0

    def describe(self) -> str:
        """Compact human-readable form."""
        parts = [
            f"P{r + 1}@cpu{self.mapping.cpu_of(r)}:prio{p}" for r, p in self.priorities
        ]
        head = f"[{self.label}] " if self.label else ""
        return head + " ".join(parts)


class Balancer(ABC):
    """A balancing policy: observations in, assignment out."""

    @abstractmethod
    def plan(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
    ) -> PriorityAssignment:
        """Produce an assignment from per-rank busy-time observations.

        ``compute_seconds[r]`` is how long rank *r* computes per unit of
        application progress (e.g. per iteration, or over a profiling
        run) under the default, unprioritised configuration.
        """
