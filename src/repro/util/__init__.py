"""Small shared utilities: RNG streams, unit conversion, validation, tables."""

from repro.util.memo import CacheStats, LruCache
from repro.util.rng import RngStreams, stream_seed
from repro.util.units import (
    cycles_to_seconds,
    seconds_to_cycles,
    format_seconds,
    format_percent,
    format_si,
)
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_type,
    check_probability,
)
from repro.util.tables import TextTable
from repro.util.stats import percent_change

__all__ = [
    "CacheStats",
    "LruCache",
    "RngStreams",
    "stream_seed",
    "cycles_to_seconds",
    "seconds_to_cycles",
    "format_seconds",
    "format_percent",
    "format_si",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
    "check_probability",
    "TextTable",
    "percent_change",
]
