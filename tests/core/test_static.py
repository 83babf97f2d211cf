"""The static balancing heuristic against the paper's known answers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.static import StaticPriorityBalancer
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping


class TestPairing:
    def test_longest_with_shortest(self):
        """BT-MZ: 'we ran process P1 and P4 on the same core' — the
        heaviest (P4) with the lightest (P1)."""
        balancer = StaticPriorityBalancer()
        comp = [17.63, 28.91, 66.47, 99.72]  # Table V case A
        pairs = balancer.pair_ranks(comp)
        assert pairs[0] == (3, 0)  # P4 with P1
        assert pairs[1] == (2, 1)  # P3 with P2

    def test_odd_count_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticPriorityBalancer().pair_ranks([1.0, 2.0, 3.0])


class TestGapRule:
    def test_balanced_pair_gets_no_gap(self):
        """SIESTA case C insight: similar loads -> equal priorities."""
        b = StaticPriorityBalancer()
        assert b.gap_for_ratio(100.0, 95.0) == 0

    def test_moderate_ratio_gap_one(self):
        b = StaticPriorityBalancer()
        assert b.gap_for_ratio(66.47, 28.91) == 1  # BT-MZ inner pair

    def test_large_ratio_gap_two(self):
        b = StaticPriorityBalancer()
        assert b.gap_for_ratio(99.0, 24.0) == 2  # MetBench ratio

    def test_gap_capped(self):
        b = StaticPriorityBalancer(max_gap=2)
        assert b.gap_for_ratio(1000.0, 1.0) == 2

    def test_zero_light_work(self):
        b = StaticPriorityBalancer()
        assert b.gap_for_ratio(5.0, 0.0) == b.max_gap
        assert b.gap_for_ratio(0.0, 0.0) == 0

    @given(
        st.floats(min_value=0.01, max_value=1000.0),
        st.floats(min_value=0.01, max_value=1000.0),
    )
    @settings(max_examples=50)
    def test_gap_symmetric_and_bounded(self, a, b):
        balancer = StaticPriorityBalancer()
        gap = balancer.gap_for_ratio(a, b)
        assert gap == balancer.gap_for_ratio(b, a)
        assert 0 <= gap <= balancer.max_gap


class TestPlan:
    def test_metbench_plan_matches_paper_case_c(self):
        """From Table IV case-A compute times, the planner should produce
        the paper's winning configuration: heavy workers at +2."""
        comp_seconds = [19.9, 80.8, 19.8, 81.6]
        plan = StaticPriorityBalancer(repair_mapping=False).plan(
            comp_seconds, ProcessMapping.identity(4)
        )
        assert plan.priority_dict == {0: 4, 1: 6, 2: 4, 3: 6}

    def test_repair_mapping_re_pairs(self):
        comp_seconds = [10.0, 90.0, 80.0, 20.0]
        plan = StaticPriorityBalancer(repair_mapping=True).plan(
            comp_seconds, ProcessMapping.identity(4)
        )
        # Heaviest (1) shares a core with lightest (0).
        assert plan.mapping.sibling_of(1) == 0
        assert plan.mapping.sibling_of(2) == 3

    def test_priorities_stay_in_os_range(self):
        plan = StaticPriorityBalancer().plan(
            [1.0, 100.0], ProcessMapping.identity(2)
        )
        for _, prio in plan.priorities:
            assert 1 <= prio <= 6

    def test_observation_count_checked(self):
        with pytest.raises(ConfigurationError):
            StaticPriorityBalancer().plan([1.0], ProcessMapping.identity(2))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            StaticPriorityBalancer(base_priority=5, max_gap=2)  # 5+2 > 6
        with pytest.raises(ConfigurationError):
            StaticPriorityBalancer(gap_scale=1.0)
        with pytest.raises(ConfigurationError):
            StaticPriorityBalancer(balance_threshold=0.0)

    def test_convenience_wrapper(self):
        # Plans straight from the paper's "Comp %" style numbers.
        plan = StaticPriorityBalancer(max_gap=2).plan(
            [0.24, 0.99, 0.24, 0.99], ProcessMapping.identity(4)
        )
        assert plan.max_gap == 2


class TestEndToEnd:
    def test_plan_improves_metbench_like_run(self, system):
        from repro.workloads.generators import barrier_loop_programs

        works = [1e9, 4e9, 1e9, 4e9]
        base = system.run(
            barrier_loop_programs(works, iterations=3), ProcessMapping.identity(4)
        )
        comp_seconds = [
            r.compute_fraction * base.total_time for r in base.stats.ranks
        ]
        plan = StaticPriorityBalancer().plan(comp_seconds, ProcessMapping.identity(4))
        balanced = system.run(
            barrier_loop_programs(works, iterations=3),
            plan.mapping,
            priorities=plan.priority_dict,
        )
        assert balanced.total_time < base.total_time
        assert balanced.imbalance_percent < base.imbalance_percent
