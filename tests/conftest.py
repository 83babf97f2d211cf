"""Shared fixtures: models, systems, and small calibrated workloads."""

from __future__ import annotations

import pytest

from repro.machine.system import System, SystemConfig
from repro.scenarios import ScenarioSpec
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.instructions import BASE_PROFILES
from repro.smt.throughput import ThroughputTable
from repro.util.rng import RngStreams
from repro.workloads.bt_mz import bt_mz_programs
from repro.workloads.metbench import metbench_programs


@pytest.fixture(scope="session")
def analytic_model() -> AnalyticThroughputModel:
    """One shared analytic model; its memo cache warms across tests."""
    return AnalyticThroughputModel()


@pytest.fixture(scope="session")
def throughput_table() -> ThroughputTable:
    """Cycle-sim measurements with short windows (test-speed tuned)."""
    return ThroughputTable(warmup_cycles=2_000, measure_cycles=15_000, seed=7)


@pytest.fixture(scope="session")
def profiles():
    return BASE_PROFILES


@pytest.fixture()
def system() -> System:
    """A fresh default system (patched kernel, analytic model)."""
    return System(SystemConfig())


@pytest.fixture()
def standard_system() -> System:
    """A system running the stock (unpatched) kernel."""
    return System(SystemConfig(kernel="standard"))


@pytest.fixture()
def rng_streams() -> RngStreams:
    """Seeded named RNG streams — the determinism contract's entry point."""
    return RngStreams(seed=1234)


#: Small calibrated work vectors: simulate in well under a second but
#: keep the paper's shape on a 2-core, 4-context chip. MetBench uses the
#: case-C skew (each core pairs a light rank with a 4x-heavier one, so
#: favouring ranks 1 and 3 pays for the decode cycles taken from 0 and
#: 2); BT-MZ uses a zone-grid-like geometric ramp.
SMALL_METBENCH_WORKS = [1.0e9, 4.0e9, 1.0e9, 4.0e9]
SMALL_BTMZ_WORKS = [6.0e8, 1.1e9, 1.9e9, 3.4e9]


@pytest.fixture()
def small_metbench_programs():
    """Factory of fresh small MetBench rank programs (single-use gens)."""

    def factory(iterations: int = 3, load: str = "hpc"):
        return metbench_programs(
            list(SMALL_METBENCH_WORKS), iterations=iterations, load=load
        )

    return factory


@pytest.fixture()
def small_btmz_programs():
    """Factory of fresh small BT-MZ rank programs (single-use gens)."""

    def factory(iterations: int = 2, profile: str = "hpc"):
        return bt_mz_programs(
            list(SMALL_BTMZ_WORKS), iterations=iterations, profile=profile
        )

    return factory


@pytest.fixture()
def oracle_scenario() -> ScenarioSpec:
    """One small, fast, skewed scenario for oracle-layer tests."""
    return ScenarioSpec(
        name="fixture-barrier",
        kind="barrier_loop",
        works=(1.0e9, 2.0e9, 1.5e9, 3.0e9),
        iterations=2,
        priorities=((0, 4), (1, 6), (2, 4), (3, 6)),
    )
