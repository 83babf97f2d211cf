"""Telemetry must be observationally free: enabling it may not change a
single byte of any simulation trace.

The runtime's gated instruments only *read* simulation state after the
event loop finishes, and the always-on engine/search instruments live
entirely outside the simulated clock — so the interval stream, and
therefore the sha256 trace digest, must be identical with the gate on
or off. This is the acceptance bar ISSUE.md sets for the whole layer.
"""

import pytest

from repro.oracle.differential import trace_digest
from repro.scenarios import ScenarioSpec, get_engine
from repro.telemetry import default_registry, set_enabled


@pytest.fixture()
def spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="neutrality",
        kind="barrier_loop",
        works=(1.0e9, 2.0e9, 1.5e9, 3.0e9),
        iterations=2,
        priorities=((0, 4), (1, 6), (2, 4), (3, 6)),
    )


def _digest(spec: ScenarioSpec, telemetry_on: bool) -> str:
    previous = set_enabled(telemetry_on)
    try:
        # The runtime checks the gate at construction; each engine run
        # constructs a fresh MpiRuntime, so the flag takes effect.
        run = get_engine("fluid").run(spec, label=f"oracle.{spec.name}").run
        return trace_digest(run)
    finally:
        set_enabled(previous)


class TestTraceNeutrality:
    def test_fluid_digest_identical_on_and_off(self, spec):
        assert _digest(spec, telemetry_on=False) == _digest(
            spec, telemetry_on=True
        )

    def test_repeated_runs_stable_under_telemetry(self, spec):
        on = [_digest(spec, telemetry_on=True) for _ in range(2)]
        off = [_digest(spec, telemetry_on=False) for _ in range(2)]
        assert len(set(on + off)) == 1

    def test_enabled_run_populates_runtime_instruments(self, spec):
        reg = default_registry()
        counter = reg.get("repro_runtime_runs_total")
        before = counter.value if counter is not None else 0.0
        _digest(spec, telemetry_on=True)
        counter = reg.get("repro_runtime_runs_total")
        assert counter is not None
        assert counter.value >= before + 1

    def test_disabled_run_adds_no_runtime_observations(self, spec):
        reg = default_registry()
        counter = reg.get("repro_runtime_runs_total")
        before = counter.value if counter is not None else 0.0
        _digest(spec, telemetry_on=False)
        counter = reg.get("repro_runtime_runs_total")
        after = counter.value if counter is not None else 0.0
        assert after == before
