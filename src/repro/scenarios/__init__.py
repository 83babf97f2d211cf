"""Canonical scenario specification and pluggable execution engines.

This package is the repo's single answer to "describe one simulated run
and execute it": :class:`ScenarioSpec` (the typed, versioned,
fingerprintable description every layer shares) plus the engine registry
(``fluid`` / ``cycle`` / ``analytic`` backends behind one ``run(spec)``
interface, all returning :class:`ExecutionResult`). The oracle, the
experiment suites and the scenario service are all thin layers over
these two ideas — see ``docs/architecture.md`` for the layer graph.
"""

from repro.scenarios.engines import (
    AnalyticEngine,
    CycleEngine,
    Engine,
    ExecutionResult,
    FluidEngine,
    fast_cycle_table,
    trace_digest,
)
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.registry import (
    all_engines,
    engine_for_model,
    get_engine,
    register,
)
from repro.scenarios.spec import KINDS, MAPPINGS, SPEC_VERSION, ScenarioSpec

__all__ = [
    "SPEC_VERSION",
    "KINDS",
    "MAPPINGS",
    "ScenarioSpec",
    "ScenarioGenerator",
    "Engine",
    "ExecutionResult",
    "FluidEngine",
    "CycleEngine",
    "AnalyticEngine",
    "trace_digest",
    "fast_cycle_table",
    "register",
    "get_engine",
    "all_engines",
    "engine_for_model",
]
