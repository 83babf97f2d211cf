"""Shared workload plumbing: work vectors and calibration helpers.

A *work vector* is the per-rank amount of work (in instructions) of one
iteration or phase. The paper characterises its applications by each
rank's computing percentage in the balanced reference run; the helpers
here translate such targets into work vectors given a throughput
estimate, so experiments can match the paper's compute-time *shape*
without hand-tuned magic numbers.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import WorkloadError

__all__ = ["WorkVector", "works_for_targets", "validate_works"]

WorkVector = List[float]


def validate_works(works: Sequence[float]) -> List[float]:
    """Check a work vector: non-empty, all finite and non-negative."""
    if not list(works):
        raise WorkloadError("empty work vector")
    out = []
    for i, w in enumerate(works):
        w = float(w)
        if not math.isfinite(w):
            raise WorkloadError(f"work[{i}] must be finite, got {w}")
        if w < 0.0:
            raise WorkloadError(f"work[{i}] must be >= 0, got {w}")
        out.append(w)
    if sum(out) == 0.0:
        raise WorkloadError("work vector is all zeros")
    return out


def works_for_targets(
    compute_fractions: Sequence[float],
    total_seconds: float,
    rate_instructions_per_second,
) -> WorkVector:
    """Per-rank work so rank *r* computes for ``compute_fractions[r] *
    total_seconds`` at the given throughput.

    This is how the experiment definitions translate the paper's
    "Comp %" columns into simulator inputs: the rank that computes 99 %
    of an 81.64 s run at ~3.6 G instructions/s needs ~2.9e11 instructions.
    ``rate_instructions_per_second`` may be a scalar or one rate per rank
    (ranks whose core sibling mostly spins run at a different operating
    point than ranks whose sibling computes).
    """
    if total_seconds <= 0:
        raise WorkloadError(f"total_seconds must be > 0, got {total_seconds}")
    n = len(compute_fractions)
    if isinstance(rate_instructions_per_second, (int, float)):
        rates = [float(rate_instructions_per_second)] * n
    else:
        rates = [float(r) for r in rate_instructions_per_second]
        if len(rates) != n:
            raise WorkloadError(
                f"need one rate per rank: got {len(rates)} for {n} ranks"
            )
    for i, (f, rate) in enumerate(zip(compute_fractions, rates)):
        if not 0.0 <= f <= 1.0:
            raise WorkloadError(f"compute_fractions[{i}] must be in [0,1], got {f}")
        if rate <= 0:
            raise WorkloadError(f"rate[{i}] must be > 0, got {rate}")
    return validate_works(
        [f * total_seconds * rate for f, rate in zip(compute_fractions, rates)]
    )
