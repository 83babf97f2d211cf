"""Summary statistics helpers for experiment analysis."""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["percent_change", "percentile"]


def percentile(sample: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (q in [0, 100]).

    Banker's rounding on the fractional rank (``round`` semantics), so
    ``percentile([1, 2], 50)`` is the *lower* of the two middle
    candidates — matching what the service's latency metrics have
    always reported.
    """
    if not sample:
        raise ConfigurationError("percentile of an empty sample")
    ordered = sorted(sample)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[int(rank)]


def percent_change(new: float, old: float) -> float:
    """Signed percent change from ``old`` to ``new`` (negative = faster/lower).

    Matches the paper's convention: a run going from 81.64 s to 74.90 s is
    reported as an 8.26 % improvement, i.e. ``percent_change(74.90, 81.64)``
    is ``-8.26`` (approximately).
    """
    if old == 0:
        raise ConfigurationError("percent_change with old == 0")
    return (new - old) / old * 100.0
