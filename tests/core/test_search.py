"""Priority-configuration search."""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.balancer import PriorityAssignment
from repro.core.search import (
    SearchStats,
    candidate_assignments,
    exhaustive_priority_search,
    greedy_priority_search,
    joint_search,
)
from repro.machine.system import System, SystemConfig
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping
from repro.smt.chip import ChipConfig
from repro.workloads.generators import barrier_loop_programs

WORKS = [1e9, 4e9]
MAPPING = ProcessMapping.identity(2)


def factory():
    return barrier_loop_programs(WORKS, iterations=2)


class TestCandidates:
    def test_gap_bound_respected(self):
        for a in candidate_assignments(MAPPING, levels=(3, 4, 5, 6), max_gap=2):
            assert a.max_gap <= 2

    def test_count_for_one_core(self):
        # 4 levels, |gap| <= 2: 16 - 2 (the (3,6),(6,3) pairs) = 14.
        cands = candidate_assignments(MAPPING, levels=(3, 4, 5, 6), max_gap=2)
        assert len(cands) == 14

    def test_lone_rank_core(self):
        m = ProcessMapping.from_dict({0: 0, 1: 2})
        cands = candidate_assignments(m, levels=(4, 5), max_gap=1)
        assert len(cands) == 4  # 2 x 2 independent levels

    def test_invalid_level(self):
        with pytest.raises(ConfigurationError):
            candidate_assignments(MAPPING, levels=(0, 4))


class TestExhaustive:
    def test_finds_better_than_default(self, system):
        result = exhaustive_priority_search(
            system, factory, MAPPING, levels=(4, 5, 6), max_gap=2
        )
        default_time = [
            t for a, t, _ in result.entries if a.priority_dict == {0: 4, 1: 4}
        ][0]
        assert result.best_time <= default_time
        # The best assignment favours the heavy rank 1.
        best = result.best.priority_dict
        assert best[1] >= best[0]

    def test_entries_sorted(self, system):
        result = exhaustive_priority_search(
            system, factory, MAPPING, levels=(4, 5), max_gap=1
        )
        times = [t for _, t, _ in result.entries]
        assert times == sorted(times)

    def test_keep_top(self, system):
        result = exhaustive_priority_search(
            system, factory, MAPPING, levels=(4, 5), max_gap=1, keep_top=2
        )
        # keep_top truncates the ranking, not the work accounting: all
        # four candidates were simulated.
        assert len(result.entries) == 2
        assert result.evaluated == 4
        assert result.stats is not None and result.stats.evaluations == 4

    def test_improvement_over(self, system):
        result = exhaustive_priority_search(
            system, factory, MAPPING, levels=(4, 5, 6), max_gap=2
        )
        assert result.improvement_over(1e9) > 99.0
        with pytest.raises(ConfigurationError):
            result.improvement_over(0.0)


class TestGreedy:
    def test_converges_to_good_config(self, system):
        result = greedy_priority_search(
            system, factory, MAPPING, levels=(4, 5, 6), max_gap=2, max_steps=5
        )
        best = result.best.priority_dict
        assert best[1] > best[0]  # heavy rank favoured

    def test_fewer_evaluations_than_exhaustive(self, system):
        greedy = greedy_priority_search(
            system, factory, MAPPING, levels=(3, 4, 5, 6), max_gap=2, max_steps=3
        )
        exhaustive = exhaustive_priority_search(
            system, factory, MAPPING, levels=(3, 4, 5, 6), max_gap=2
        )
        # Greedy's history contains every evaluated point.
        assert greedy.evaluated <= exhaustive.evaluated * 2  # sanity bound

    def test_custom_start(self, system):
        start = PriorityAssignment.build(MAPPING, {0: 4, 1: 6}, label="seed")
        result = greedy_priority_search(
            system, factory, MAPPING, start=start, levels=(4, 5, 6), max_steps=2
        )
        assert result.best_time <= [t for a, t, _ in result.entries if a is start][0]


class TestSearchStats:
    def test_serial_stats_track_model_cache(self, system):
        result = exhaustive_priority_search(
            system, factory, MAPPING, levels=(4, 5), max_gap=1
        )
        stats = result.stats
        assert stats.workers == 1
        assert stats.evaluations == len(result.entries) == 4
        # The shared model answers repeat queries from its memo.
        assert stats.cache_hits > 0
        assert 0.0 < stats.hit_rate <= 1.0

    def test_greedy_carries_stats(self, system):
        result = greedy_priority_search(
            system, factory, MAPPING, levels=(4, 5), max_gap=1, max_steps=2
        )
        assert result.stats is not None
        assert result.stats.evaluations == len(result.entries)

    def test_handbuilt_result_defaults(self):
        st = SearchStats(evaluations=3)
        assert st.cache_hits == st.cache_misses == 0
        assert st.hit_rate == 0.0


class TestParallel:
    def test_parallel_matches_serial(self):
        serial = exhaustive_priority_search(
            System(SystemConfig()), factory, MAPPING, levels=(4, 5), max_gap=1
        )
        parallel = exhaustive_priority_search(
            System(SystemConfig()),
            factory,
            MAPPING,
            levels=(4, 5),
            max_gap=1,
            workers=2,
        )
        assert [(a.priority_dict, t, imb) for a, t, imb in parallel.entries] == [
            (a.priority_dict, t, imb) for a, t, imb in serial.entries
        ]
        assert parallel.stats.evaluations == serial.stats.evaluations

    def test_worker_count_never_changes_the_ranking(self):
        """workers=1 and workers=N walk the same candidate space and must
        produce identical entries, times and imbalances — parallelism is
        an implementation detail, not a physics knob."""
        serial = exhaustive_priority_search(
            System(SystemConfig()), factory, MAPPING, levels=(4, 5, 6), max_gap=2
        )
        flat = [(a.priority_dict, t, imb) for a, t, imb in serial.entries]
        for workers in (2, 4):
            par = exhaustive_priority_search(
                System(SystemConfig()),
                factory,
                MAPPING,
                levels=(4, 5, 6),
                max_gap=2,
                workers=workers,
            )
            assert [(a.priority_dict, t, imb) for a, t, imb in par.entries] == flat
            assert par.best_time == serial.best_time

    def test_unpicklable_factory_falls_back_to_serial(self, system):
        local_works = list(WORKS)
        lambda_factory = lambda: barrier_loop_programs(local_works, iterations=2)
        result = exhaustive_priority_search(
            system, lambda_factory, MAPPING, levels=(4, 5), max_gap=1, workers=2
        )
        assert result.stats.workers == 1  # pool refused the lambda
        assert result.evaluated == 4

    def test_single_candidate_stays_serial(self, system):
        result = exhaustive_priority_search(
            system, factory, MAPPING, levels=(4,), max_gap=0, workers=4
        )
        assert result.stats.workers == 1
        assert result.evaluated == 1


def point_keys(result):
    return [(a.mapping.rank_to_cpu, a.priorities) for a, _, _ in result.entries]


class TestOneEvaluator:
    """Every strategy scores through one evaluator that simulates each
    distinct (mapping, priorities) point once per search."""

    def test_greedy_lists_each_point_once(self, system):
        # This hill-climb revisits points: 24 scoring requests, 21 of
        # them distinct. The winner is the one the re-simulating walk
        # found.
        result = greedy_priority_search(
            system,
            functools.partial(
                barrier_loop_programs, [8e8, 2.4e9, 1.2e9, 2e9], iterations=2
            ),
            ProcessMapping.identity(4),
        )
        keys = point_keys(result)
        assert len(keys) == len(set(keys)) == result.stats.evaluations == 21
        assert result.best.priorities == ((0, 3), (1, 4), (2, 4), (3, 4))
        assert result.best_time == pytest.approx(1.2796275969631317, rel=1e-12)

    def test_exhaustive_is_joint_on_one_mapping(self, system):
        mapping = ProcessMapping.from_dict({0: 0, 1: 2, 2: 1, 3: 3})
        works = functools.partial(
            barrier_loop_programs, [1e9, 3e9, 2e9, 1.5e9], iterations=1
        )
        kwargs = dict(levels=(4, 5), max_gap=1)
        exhaustive = exhaustive_priority_search(system, works, mapping, **kwargs)
        joint = joint_search(
            system, works, n_ranks=4, mappings=[mapping], **kwargs
        )
        assert exhaustive.entries == joint.entries
        assert exhaustive.stats.evaluations == joint.stats.evaluations == 16

    @given(
        works=st.lists(
            st.floats(min_value=5e8, max_value=3e9), min_size=3, max_size=5
        )
    )
    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_greedy_never_lists_a_point_twice(self, works):
        result = greedy_priority_search(
            System(SystemConfig(chip=ChipConfig(n_cores=3))),
            functools.partial(barrier_loop_programs, works, iterations=1),
            ProcessMapping.identity(len(works)),
            levels=(3, 4, 5, 6),
            max_steps=4,
        )
        keys = point_keys(result)
        assert len(keys) == len(set(keys)) == result.stats.evaluations
