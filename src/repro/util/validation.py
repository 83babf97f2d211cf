"""Argument-validation helpers used across the package.

Centralising these keeps error messages uniform and the call sites terse.
Every failure raises a typed error from :mod:`repro.errors`:
:class:`~repro.errors.ConfigurationError` for out-of-range values and
:class:`~repro.errors.ValidationTypeError` for outright wrong types (the
latter also derives from ``TypeError``, so pre-existing ``except
TypeError`` call sites keep working while ``except ReproError`` now sees
everything).
"""

from __future__ import annotations

import math
from typing import Any, Sequence, Tuple, Type, Union

from repro.errors import ConfigurationError, ValidationTypeError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_finite",
    "check_in_range",
    "check_type",
    "check_probability",
    "check_int",
    "check_choice",
]


def check_type(name: str, value: Any, types: Union[Type, Tuple[Type, ...]]) -> None:
    """Raise :class:`ValidationTypeError` unless ``value`` is an instance
    of ``types``.

    ``bool`` is deliberately rejected where a number is expected, because
    ``isinstance(True, int)`` holds and silently accepting booleans hides
    caller bugs.
    """
    if isinstance(value, bool) and types in (int, float, (int, float), (float, int)):
        raise ValidationTypeError(f"{name} must be a number, got bool")
    if not isinstance(value, types):
        type_names = (
            types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        )
        raise ValidationTypeError(
            f"{name} must be {type_names}, got {type(value).__name__}"
        )


def check_positive(name: str, value: float) -> None:
    """Raise unless ``value`` is a number strictly greater than zero."""
    check_type(name, value, (int, float))
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")


def check_non_negative(name: str, value: float) -> None:
    """Raise unless ``value`` is a number greater than or equal to zero."""
    check_type(name, value, (int, float))
    if not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


def check_finite(name: str, value: float) -> None:
    """Raise unless ``value`` is a finite number (not NaN or +/-inf)."""
    check_type(name, value, (int, float))
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise unless ``lo <= value <= hi``."""
    check_type(name, value, (int, float))
    if not (lo <= value <= hi):
        raise ConfigurationError(f"{name} must be in [{lo}, {hi}], got {value}")


def check_probability(name: str, value: float) -> None:
    """Raise unless ``value`` is a valid probability in [0, 1]."""
    check_in_range(name, value, 0.0, 1.0)


def check_int(name: str, value: Any) -> int:
    """Raise unless ``value`` is an integer (bool rejected); returns it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationTypeError(
            f"{name} must be an int, got {type(value).__name__}"
        )
    return value


def check_choice(name: str, value: Any, choices: Sequence[Any]) -> None:
    """Raise unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigurationError(
            f"{name} must be one of {sorted(map(repr, choices))}, got {value!r}"
        )
