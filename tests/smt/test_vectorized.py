"""Bit-faithfulness of the stacked (numpy) core solver.

The vectorized solver's whole contract is that it IS the scalar solver,
element-wise: same IEEE-754 operations in the same order per lane. These
tests pin that equality exhaustively at the core-query level, at the
chip-coupling level, and through the memoisation that both paths share.
"""

import itertools
import random

import pytest

from repro.errors import ConfigurationError
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.instructions import BASE_PROFILES
from repro.smt.vectorized import solve_stack

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


class TestSolveStack:
    def test_bit_identical_to_scalar_exhaustively(self):
        """Every profile pair (idle included) × priority mix × traffic:
        the stack must agree with _solve to the last bit."""
        model = AnalyticThroughputModel()
        queries = all_queries()
        stacked = solve_stack(model, queries)
        for q, got in zip(queries, stacked):
            want = model._solve(q[0], q[1], int(q[2]), int(q[3]), float(q[4]))
            assert got == want, q

    def test_empty_stack(self):
        assert solve_stack(AnalyticThroughputModel(), []) == []

    def test_singleton_stack(self):
        model = AnalyticThroughputModel()
        hpc = BASE_PROFILES["hpc"]
        (got,) = solve_stack(model, [(hpc, hpc, 4, 6, 0.1)])
        assert got == model._solve(hpc, hpc, 4, 6, 0.1)

    def test_problem_cache_reuse_is_stable(self):
        """Solving the same pair structure twice (different traffic the
        second time) reuses the cached arrays without perturbing them."""
        model = AnalyticThroughputModel()
        queries = all_queries()[:64]
        first = solve_stack(model, queries)
        shifted = [(pa, pb, qa, qb, e + 0.01) for (pa, pb, qa, qb, e) in queries]
        _ = solve_stack(model, shifted)
        again = solve_stack(model, queries)
        assert again == first
        assert len(model._stack_problems) >= 1

    def test_stack_order_does_not_matter(self):
        """A query's result must not depend on its neighbours — the
        purity the chip sweep's stage-parallelism relies on."""
        model = AnalyticThroughputModel()
        queries = all_queries()[:50]
        forward = solve_stack(model, queries)
        backward = solve_stack(
            AnalyticThroughputModel(), list(reversed(queries))
        )
        assert forward == list(reversed(backward))


class TestCoreIpcBatch:
    def test_matches_core_ipc_loop_and_shares_memo(self):
        model_batch = AnalyticThroughputModel()
        model_scalar = AnalyticThroughputModel()
        queries = all_queries()[:120]
        batched = model_batch._core_ipc_batch(queries)
        looped = [model_scalar.core_ipc(*q) for q in queries]
        assert batched == looped
        # The batch landed in the same memo the scalar path reads.
        pa, pb, qa, qb, ext = queries[0]
        assert model_batch.core_ipc(pa, pb, qa, qb, ext) == batched[0]

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
    def _random_states(self, n, seed=7):
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

    def test_matches_scalar_chip_ipc(self):
        states = self._random_states(100)
        stacked = AnalyticThroughputModel().chip_ipc_stack(states)
        scalar_model = AnalyticThroughputModel()
        scalar = [scalar_model.chip_ipc(s) for s in states]
        assert stacked == scalar

    def test_results_land_in_chip_cache(self):
        model = AnalyticThroughputModel()
        states = self._random_states(10, seed=3)
        stacked = model.chip_ipc_stack(states)
        # A scalar query on the same model is now a pure cache hit.
        assert [model.chip_ipc(s) for s in states] == stacked

    def test_duplicate_states_share_one_solve(self):
        model = AnalyticThroughputModel()
        state = self._random_states(1, seed=5)[0]
        out = model.chip_ipc_stack([state, state, state])
        assert out[0] == out[1] == out[2]
        # The stack dedupes repeated states itself: one chip-memo lookup
        # (a miss), one solve, and the same memo work as a lone state.
        chip_stats = model._chip_cache.stats()
        assert (chip_stats.hits, chip_stats.misses, chip_stats.size) == (0, 1, 1)
        single = AnalyticThroughputModel()
        assert single.chip_ipc_stack([state]) == [out[0]]
        assert single.cache_stats() == model.cache_stats()

    def test_empty_core_state_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalyticThroughputModel().chip_ipc_stack([()])
