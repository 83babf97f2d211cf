"""The engine registry: named execution backends, one lookup.

Callers that used to hard-wire ``run_fluid`` / ``run_cycle`` /
``analytic_estimate`` now ask the registry: the experiment runner maps
its ``System`` model knob through :func:`engine_for_model`, the service
executor resolves the engine a job names, and the conformance oracle
iterates :func:`all_engines` so a newly registered backend is
automatically cross-checked against the incumbents.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.scenarios.engines import Engine

__all__ = [
    "register",
    "get_engine",
    "all_engines",
    "engine_for_model",
]

_LOCK = threading.Lock()
_ENGINES: Dict[str, Engine] = {}

#: ``SystemConfig.model`` knob -> engine name. The "analytic" *model*
#: drives the fluid runtime (engine "fluid"); the closed-form engine
#: "analytic" has no System model at all.
_MODEL_TO_ENGINE = {"analytic": "fluid", "cycle": "cycle"}


def register(engine: Engine, replace: bool = False) -> Engine:
    """Register ``engine`` under ``engine.name``.

    Re-registering an existing name requires ``replace=True`` so a typo
    cannot silently shadow a physics backend.
    """
    if not engine.name:
        raise ConfigurationError("engine has no name")
    with _LOCK:
        if engine.name in _ENGINES and not replace:
            raise ConfigurationError(
                f"engine {engine.name!r} is already registered "
                "(pass replace=True to override)"
            )
        _ENGINES[engine.name] = engine
    return engine


def get_engine(name: str) -> Engine:
    with _LOCK:
        engine = _ENGINES.get(name)
        if engine is None:
            raise ConfigurationError(
                f"unknown engine {name!r} (registered: {sorted(_ENGINES)})"
            )
    return engine


def all_engines() -> Tuple[Engine, ...]:
    """Registered engines in name order."""
    with _LOCK:
        return tuple(_ENGINES[name] for name in sorted(_ENGINES))


def engine_for_model(model: str) -> str:
    """Map a ``SystemConfig.model`` knob to the engine that realises it."""
    engine = _MODEL_TO_ENGINE.get(model)
    if engine is None:
        raise ConfigurationError(
            f"no engine realises system model {model!r} "
            f"(known: {sorted(_MODEL_TO_ENGINE)})"
        )
    return engine


def _register_defaults() -> None:
    from repro.scenarios.engines import (
        AnalyticEngine,
        CycleEngine,
        FluidEngine,
    )

    for engine in (FluidEngine(), CycleEngine(), AnalyticEngine()):
        register(engine, replace=True)


_register_defaults()
