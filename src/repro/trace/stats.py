"""The paper's metrics, computed from a trace.

Paper section VII: *"we used two metrics: first, the percentage of
imbalance (computed as the maximum waiting time in percentage of the
processes in the MPI application); second, the total execution time of
the application."* Waiting time is the light-grey SYNC state of the
PARAVER traces; computing is the dark-grey state (into which the paper
folds init/finalisation work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.events import RankState
from repro.trace.trace import Trace
from repro.util.tables import TextTable

__all__ = ["RANK_FRACTIONS", "RankStats", "TraceStats", "compute_stats"]

#: The states a rank's time splits into, in the order every rank doc
#: lists them; ``RankStats`` holds each as ``<state>_fraction``.
RANK_FRACTIONS: Tuple[str, ...] = ("compute", "sync", "comm", "noise", "idle")

_new = object.__new__
_COMPUTE, _INIT, _FINAL = RankState.COMPUTE, RankState.INIT, RankState.FINAL
_SYNC, _COMM, _NOISE, _IDLE = (
    RankState.SYNC, RankState.COMM, RankState.NOISE, RankState.IDLE
)


@dataclass(frozen=True)
class RankStats:
    """Per-rank decomposition of total run time, as fractions in [0, 1]."""

    rank: int
    compute_fraction: float
    sync_fraction: float
    comm_fraction: float
    noise_fraction: float
    idle_fraction: float

    @classmethod
    def _trusted(
        cls, rank: int, compute: float, sync: float, comm: float, noise: float,
        idle: float,
    ) -> "RankStats":
        """The same record, built without the frozen ``__init__``'s
        per-field ``object.__setattr__`` (one per rank per run)."""
        stats = _new(cls)
        fields = stats.__dict__
        fields["rank"] = rank
        fields["compute_fraction"] = compute
        fields["sync_fraction"] = sync
        fields["comm_fraction"] = comm
        fields["noise_fraction"] = noise
        fields["idle_fraction"] = idle
        return stats

    def fractions(self) -> Dict[str, float]:
        """``{state: fraction}`` over :data:`RANK_FRACTIONS`, in order."""
        return {k: getattr(self, f"{k}_fraction") for k in RANK_FRACTIONS}

    @property
    def compute_percent(self) -> float:
        return self.compute_fraction * 100.0

    @property
    def sync_percent(self) -> float:
        return self.sync_fraction * 100.0


@dataclass(frozen=True)
class TraceStats:
    """Whole-application metrics (the paper's two, plus the breakdown)."""

    total_time: float
    ranks: Tuple[RankStats, ...]

    @property
    def imbalance_fraction(self) -> float:
        """Paper metric: maximum per-rank waiting-time fraction."""
        return max((r.sync_fraction for r in self.ranks), default=0.0)

    @property
    def imbalance_percent(self) -> float:
        return self.imbalance_fraction * 100.0

    @property
    def bottleneck_rank(self) -> int:
        """The rank with the *least* waiting time — the one the paper
        identifies as the bottleneck worth prioritising."""
        return min(self.ranks, key=lambda r: r.sync_fraction).rank

    @property
    def most_waiting_rank(self) -> int:
        """The rank that waits the most (the candidate resource donor)."""
        return max(self.ranks, key=lambda r: r.sync_fraction).rank

    def rank_stats(self, rank: int) -> RankStats:
        for r in self.ranks:
            if r.rank == rank:
                return r
        raise TraceError(f"no rank {rank} in stats")

    def as_table(
        self,
        priorities: Optional[Dict[int, int]] = None,
        cores: Optional[Dict[int, int]] = None,
        label: str = "",
    ) -> TextTable:
        """Paper-style characterisation table (like Tables IV-VI)."""
        table = TextTable(
            ["Proc", "Core", "P", "Comp %", "Sync %", "Imb %", "Exec. Time"],
            title=label or None,
        )
        for i, r in enumerate(self.ranks):
            table.add_row(
                [
                    f"P{r.rank + 1}",
                    "" if cores is None else str(cores.get(r.rank, "")),
                    "" if priorities is None else str(priorities.get(r.rank, "")),
                    f"{r.compute_percent:.2f}",
                    f"{r.sync_percent:.2f}",
                    f"{self.imbalance_percent:.2f}" if i == 0 else "",
                    f"{self.total_time:.2f}s" if i == 0 else "",
                ]
            )
        return table


def compute_stats(trace: Trace, window: Optional[Tuple[float, float]] = None) -> TraceStats:
    """Compute :class:`TraceStats` over the whole run or a time window.

    Fractions are of the *application's total time* (``trace.total_time``
    or the window length), matching the paper's tables, so a rank that
    finished early accrues IDLE for the remainder.
    """
    if window is None:
        t0, t1 = 0.0, trace.total_time
    else:
        t0, t1 = window
        if t1 <= t0:
            raise TraceError(f"empty stats window [{t0}, {t1}]")
    span = t1 - t0
    if span <= 0:
        # Degenerate (zero-duration) run: everything is trivially balanced.
        return TraceStats(
            total_time=0.0,
            ranks=tuple(
                RankStats(tl.rank, 0.0, 0.0, 0.0, 0.0, 0.0) for tl in trace
            ),
        )

    per_rank: List[RankStats] = []
    for tl in trace:
        if window is None:
            # The running totals: the loop below, over every interval.
            totals: Dict[RankState, float] = tl.totals
        else:
            totals = {}
            for iv in tl.clipped(t0, t1):
                totals[iv.state] = totals.get(iv.state, 0.0) + iv.duration
        get = totals.get
        accounted = sum(totals.values())
        compute = get(_COMPUTE, 0.0) + get(_INIT, 0.0) + get(_FINAL, 0.0)
        per_rank.append(
            RankStats._trusted(
                tl.rank,
                compute / span,
                get(_SYNC, 0.0) / span,
                get(_COMM, 0.0) / span,
                get(_NOISE, 0.0) / span,
                (get(_IDLE, 0.0) + (span - accounted)) / span,
            )
        )
    return TraceStats(total_time=span, ranks=tuple(per_rank))
