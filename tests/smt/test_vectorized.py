"""Stacked chip queries and memo purity of the analytic model.

``chip_ipc_stack`` answers a sequence of chip states with one
``chip_ipc`` solve per distinct state; every other query is a memo hit.
These tests pin its stack contract (empty, singleton, order
independence), its equality with the scalar ``chip_ipc`` loop, and the
history-independence of the core memo that both paths share.
"""

import itertools
import random

import pytest

from repro.errors import ConfigurationError
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.instructions import BASE_PROFILES

PROFILES = list(BASE_PROFILES.values()) + [None]
PRIOS = [(4, 4), (4, 6), (6, 4), (2, 7), (7, 2), (0, 4), (5, 5)]
EXTS = [0.0, 0.013, 0.2471113258890573, 1.5]


def all_queries():
    return [
        (pa, pb, qa, qb, ext)
        for pa, pb in itertools.product(PROFILES, repeat=2)
        for (qa, qb) in PRIOS
        for ext in EXTS
    ]


def random_states(n, seed=7):
    rng = random.Random(seed)
    states = []
    for _ in range(n):
        n_cores = rng.choice((1, 2, 4))
        states.append(tuple(
            (
                rng.choice(PROFILES),
                rng.choice(PROFILES),
                rng.randint(0, 7),
                rng.randint(0, 7),
            )
            for _ in range(n_cores)
        ))
    return states


class TestSolveStack:
    """The stack contract of the batched entry point, ``chip_ipc_stack``."""

    def test_empty_stack(self):
        assert AnalyticThroughputModel().chip_ipc_stack([]) == []

    def test_singleton_stack(self):
        model = AnalyticThroughputModel()
        hpc = BASE_PROFILES["hpc"]
        state = ((hpc, hpc, 4, 6), (hpc, None, 4, 4))
        (got,) = model.chip_ipc_stack([state])
        assert got == AnalyticThroughputModel().chip_ipc(state)

    def test_stack_order_does_not_matter(self):
        """A state's result must not depend on its neighbours in the
        stack."""
        states = random_states(50, seed=11)
        forward = AnalyticThroughputModel().chip_ipc_stack(states)
        backward = AnalyticThroughputModel().chip_ipc_stack(
            list(reversed(states))
        )
        assert forward == list(reversed(backward))


class TestCoreIpcBatch:
    def test_warm_cache_order_independence(self):
        """History-independence of the memo: warming in different orders
        yields identical values (the exact-key purity fix)."""
        queries = all_queries()[:80]
        warm_fwd = AnalyticThroughputModel()
        warm_rev = AnalyticThroughputModel()
        for q in queries:
            warm_fwd.core_ipc(*q)
        for q in reversed(queries):
            warm_rev.core_ipc(*q)
        assert [warm_fwd.core_ipc(*q) for q in queries] == [
            warm_rev.core_ipc(*q) for q in queries
        ]


class TestChipIpcStack:
    def test_matches_scalar_chip_ipc(self):
        states = random_states(100)
        stacked = AnalyticThroughputModel().chip_ipc_stack(states)
        scalar_model = AnalyticThroughputModel()
        scalar = [scalar_model.chip_ipc(s) for s in states]
        assert stacked == scalar

    def test_results_land_in_chip_cache(self):
        model = AnalyticThroughputModel()
        states = random_states(10, seed=3)
        stacked = model.chip_ipc_stack(states)
        misses = model.cache_stats().misses
        # A scalar query on the same model is now a pure cache hit.
        assert [model.chip_ipc(s) for s in states] == stacked
        assert model.cache_stats().misses == misses

    def test_duplicate_states_share_one_solve(self):
        model = AnalyticThroughputModel()
        state = random_states(1, seed=5)[0]
        out = model.chip_ipc_stack([state, state, state])
        assert out[0] == out[1] == out[2]
        # Repeats after the first are chip-memo hits: one miss, one solve,
        # and the same core-memo work as a lone state.
        chip_stats = model._chip_cache.stats()
        assert (chip_stats.hits, chip_stats.misses, chip_stats.size) == (2, 1, 1)
        single = AnalyticThroughputModel()
        assert single.chip_ipc_stack([state]) == [out[0]]
        assert single._cache.stats() == model._cache.stats()

    def test_empty_core_state_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalyticThroughputModel().chip_ipc_stack([()])
