"""Static priority balancing — the paper's mechanism, systematised.

The authors balanced each application by hand in four steps (sections
VII-A/B/C). This module encodes the procedure they converged on:

1. **Pairing**: place the rank with the *longest* compute time on the
   same core as the rank with the *shortest* (BT-MZ: "we ran process P1
   and P4 on the same core"), second-longest with second-shortest, etc.
2. **Priorities**: within each core pair, favour the heavier rank with a
   priority gap proportional to the imbalance — but *bounded*, because
   the penalty is exponential in the gap and overshooting reverses the
   imbalance (MetBench case D, SIESTA case D).
3. **Similar loads get equal priorities** (SIESTA case C insight: "since
   P2 and P3 work, more or less, on the same amount of data, using a
   different priority for these two processes may introduce even more
   imbalance").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.balancer import Balancer, PriorityAssignment
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping, paired_mapping

__all__ = ["StaticPriorityBalancer"]


@dataclass(frozen=True)
class StaticPriorityBalancer(Balancer):
    """The heuristic static planner.

    Attributes
    ----------
    base_priority:
        Priority of the penalised rank of a pair (MEDIUM keeps user-level
        compatibility; the paper mostly penalises at 4 or 3).
    max_gap:
        Hard bound on the per-core priority difference. The paper's
        successful cases use gaps of 1-2; gap 3 reversed MetBench.
    balance_threshold:
        Compute-time ratio (lighter/heavier) above which a pair is
        considered balanced and gets equal priorities.
    gap_scale:
        Imbalance-to-gap conversion: the gap grows by one for every
        ``gap_scale``-fold compute-time ratio between the pair, i.e.
        ``gap = round(log(heavy/light) / log(gap_scale))``. The default
        of 2.2 maps the paper's MetBench ratio (~4.1x) to gap 2 and
        BT-MZ's inner pair (~2.3x) to gap 1 — the gaps the authors
        converged on by hand.
    repair_mapping:
        If True, re-pair ranks longest-with-shortest before assigning
        priorities (step 1); if False, keep the caller's mapping.
    """

    base_priority: int = 4
    max_gap: int = 2
    balance_threshold: float = 0.8
    gap_scale: float = 2.2
    repair_mapping: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.base_priority <= 6:
            raise ConfigurationError(
                f"base_priority must be an OS-settable level 1-6, got {self.base_priority}"
            )
        if self.max_gap < 0 or self.base_priority + self.max_gap > 6:
            raise ConfigurationError(
                f"base_priority({self.base_priority}) + max_gap({self.max_gap}) "
                "must stay within the OS range (<= 6)"
            )
        if not 0.0 < self.balance_threshold <= 1.0:
            raise ConfigurationError(
                f"balance_threshold must be in (0,1], got {self.balance_threshold}"
            )
        if self.gap_scale <= 1.0:
            raise ConfigurationError(f"gap_scale must be > 1, got {self.gap_scale}")

    # -- step 1: pairing ---------------------------------------------------------

    def pair_ranks(self, compute_seconds: Sequence[float]) -> List[Tuple[int, int]]:
        """Longest-with-shortest pairing over all ranks.

        Returns core pairs ``(heavy_rank, light_rank)`` ordered by core.
        Requires an even rank count (one rank per hardware context).
        """
        n = len(compute_seconds)
        if n == 0 or n % 2 != 0:
            raise ConfigurationError(
                f"pairing needs an even number of ranks, got {n}"
            )
        order = sorted(range(n), key=lambda r: -float(compute_seconds[r]))
        pairs = []
        for i in range(n // 2):
            pairs.append((order[i], order[n - 1 - i]))
        return pairs

    # -- step 2+3: priorities ------------------------------------------------------

    def gap_for_ratio(self, heavy: float, light: float) -> int:
        """Priority gap for a pair with the given compute times."""
        if heavy <= 0 and light <= 0:
            return 0
        if light <= 0:
            return self.max_gap
        ratio = heavy / light
        if ratio < 1.0:
            ratio = 1.0 / ratio
        if ratio >= 1.0 / self.balance_threshold:
            gap = int(round(math.log(ratio) / math.log(self.gap_scale)))
            return max(1, min(self.max_gap, gap))
        return 0

    def plan(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
    ) -> PriorityAssignment:
        """Assignment from observed per-rank compute times."""
        n = len(compute_seconds)
        if n != mapping.n_ranks:
            raise ConfigurationError(
                f"{n} observations for a {mapping.n_ranks}-rank mapping"
            )
        if self.repair_mapping and n % 2 == 0 and n >= 2:
            pairs = self.pair_ranks(compute_seconds)
            mapping = paired_mapping(pairs)
        priorities: Dict[int, int] = {r: self.base_priority for r in range(n)}
        for pair in mapping.core_pairs():
            if len(pair) != 2:
                continue
            a, b = pair
            heavy, light = (
                (a, b) if compute_seconds[a] >= compute_seconds[b] else (b, a)
            )
            gap = self.gap_for_ratio(
                float(compute_seconds[heavy]), float(compute_seconds[light])
            )
            priorities[heavy] = self.base_priority + gap
        return PriorityAssignment.build(mapping, priorities, label="static-balancer")

