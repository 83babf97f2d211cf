"""The profile -> plan -> verify pipeline, run through the policy path.

The paper's per-application workflow: profile the unbalanced run, plan
priorities with the static planner (the ``propshare`` policy wraps
:class:`~repro.core.StaticPriorityBalancer`), then verify the plan with
a second run.
"""

import pytest

from repro.policies import apply_policy, get_policy
from repro.policies.zoo import ProportionalSharePolicy
from repro.scenarios import ScenarioSpec, get_engine


def _spec(works, iterations):
    return ScenarioSpec(
        name="advise", kind="barrier_loop", works=tuple(works),
        iterations=iterations,
    )


def _advise(spec, policy=None):
    """(baseline run, planned spec, balanced run) for one scenario."""
    engine = get_engine("fluid")
    planned, options = apply_policy(policy or get_policy("propshare"), spec)
    return engine.run(spec), planned, engine.run(planned, options=options)


class TestAdvisor:
    def test_end_to_end_improvement(self):
        baseline, _, balanced = _advise(_spec([1e9, 4e9, 1e9, 4e9], 3))
        assert balanced.total_time < baseline.total_time
        assert balanced.imbalance_percent < baseline.imbalance_percent

    def test_assignment_favours_heavy_ranks(self):
        _, planned, _ = _advise(_spec([1e9, 4e9, 1e9, 4e9], 2))
        prios = dict(planned.priorities)
        for heavy, light in ((1, 0), (3, 2)):
            assert prios[heavy] > 4
            assert prios[heavy] > prios[light]

    def test_balanced_workload_untouched(self):
        spec = _spec([2e9] * 4, 2)
        baseline, planned, balanced = _advise(spec)
        # No gap -> the no-op plan hands back the spec itself.
        assert planned is spec
        assert balanced.total_time == pytest.approx(baseline.total_time, rel=0.05)

    def test_custom_balancer(self):
        _, planned, _ = _advise(
            _spec([1e9, 4e9], 2), ProportionalSharePolicy(max_gap=1)
        )
        prios = dict(planned.priorities)
        assert prios, "a 4x skew must still get a gap"
        assert max(prios.values()) - min(prios.values()) <= 1
