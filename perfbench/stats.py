"""Sample statistics and outcome accounting for the benchmark.

Kept free of any ``repro`` import: the harness must judge the program,
not borrow its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: Percentiles a tail latency may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples_for(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples beyond ``q``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"no sample leaves anything beyond p{q:g}")
    n = 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def tail_percentile(
    samples: Sequence[float], candidates: Sequence[float] = TAIL_PERCENTILES
) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest ``q`` with at least ``MIN_BEYOND``
    samples beyond it, or ``None`` when the sample is too small for any."""
    for q in sorted(candidates, reverse=True):
        if beyond(len(samples), q) >= MIN_BEYOND:
            return q, percentile(samples, q)
    return None


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of an empty sample")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- outcomes --------------------------------------------------------------------


def job_failed(doc: object) -> bool:
    """A served job counts as failed unless it settled ``done`` with a result."""
    return not (
        isinstance(doc, dict)
        and doc.get("state") == "done"
        and isinstance(doc.get("result"), dict)
    )


@dataclass
class Outcomes:
    """Attempted vs failed work items, and why the failures happened.

    ``failed_ratio`` is failed / attempted: an HTTP status other than
    200, a job not settled ``done``, a client timeout and an exception
    each count as a failure of every item the request carried.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self, items: int = 1) -> None:
        self.attempted += items

    def fail(self, reason: str, items: int = 1) -> None:
        self.attempted += items
        self.failed += items
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def record_response(self, status: Optional[int], doc: object) -> None:
        """Account one ``POST /v1/jobs`` reply (``status=None``: no reply)."""
        if status is None:
            self.fail("no reply (client timeout or connection error)")
        elif status != 200:
            self.fail(f"HTTP {status}")
        elif job_failed(doc):
            state = doc.get("state") if isinstance(doc, dict) else None
            self.fail(f"job not done (state={state!r})")
        else:
            self.ok()

    def record_envelope(
        self, status: Optional[int], doc: object, n_jobs: int
    ) -> None:
        """Account one ``POST /v1/jobs:batch`` reply carrying ``n_jobs``."""
        if status is None:
            self.fail("no reply (client timeout or connection error)", n_jobs)
            return
        entries = doc.get("jobs") if isinstance(doc, dict) else None
        if status != 200 or not isinstance(entries, list):
            self.fail(f"HTTP {status}", n_jobs)
            return
        for entry in entries:
            if job_failed(entry):
                state = entry.get("state") if isinstance(entry, dict) else None
                self.fail(f"job not done (state={state!r})")
            else:
                self.ok()
        if len(entries) < n_jobs:
            self.fail("envelope reply is missing jobs", n_jobs - len(entries))

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
