"""Workload inputs, generated from the benchmark's ``--seed``.

The same seed always yields the same inputs; the program under test
only ever receives what these functions produce.
"""

from __future__ import annotations

import random
import threading
from typing import List

#: search-joint shape: five barrier-loop ranks (one iteration) on a 4-core
#: chip (all 25 symmetry-pruned mappings), priority levels 5-6 with at
#: most 2 levels between siblings — 800 candidates per search.
SEARCH_RANKS = 5
SEARCH_CORES = 4
SEARCH_LEVELS = (5, 6)
SEARCH_MAX_GAP = 2
SEARCH_ITERATIONS = 1
SEARCH_CANDIDATES = 800

#: tournament-cluster shape: the 2-node distant-pairs corpus.
TOURNAMENT_CORPUS = "cluster"
TOURNAMENT_SCENARIOS = 8

#: A run of search-joint or tournament-cluster cycles through this many
#: input sets drawn from its seed, so that its median averages over
#: inputs instead of resting on one draw. A tournament's cost varies
#: more from draw to draw than a search's, so it averages over more.
SEARCH_INPUT_SETS = 8
TOURNAMENT_INPUT_SETS = 16

#: serve-interactive: share of requests that repeat an earlier spec.
REPEAT_SHARE = 0.25
#: serve-bulk: specs per ``POST /v1/jobs:batch`` envelope.
ENVELOPE_SIZE = 32


def search_works(seed: int, index: int) -> List[float]:
    """Per-rank work (instructions) of input set ``index`` of the searched
    barrier loop."""
    rng = random.Random(f"search-joint:{seed}:{index}")
    return [
        round(rng.lognormvariate(0.0, 0.5) * 1.5e9, -6)
        for _ in range(SEARCH_RANKS)
    ]


def tournament_config_doc(seed: int, index: int) -> dict:
    """The :class:`repro.policies.TournamentConfig` document of input set
    ``index``."""
    from repro.policies import DEFAULT_POLICIES, PLACEMENT_POLICIES

    return {
        "policies": list(DEFAULT_POLICIES + PLACEMENT_POLICIES),
        "corpus": TOURNAMENT_CORPUS,
        "n_scenarios": TOURNAMENT_SCENARIOS,
        "seed": int(seed) * TOURNAMENT_INPUT_SETS + index,
        "engine": "fluid",
    }


def program_inputs(workload: str, seed: int) -> List[dict]:
    """The input sets the ``perfbench.worker`` process under test receives."""
    if workload == "search-joint":
        return [{"works": search_works(seed, i)} for i in range(SEARCH_INPUT_SETS)]
    if workload == "tournament-cluster":
        return [{"config": tournament_config_doc(seed, i)}
                for i in range(TOURNAMENT_INPUT_SETS)]
    raise ValueError(f"{workload!r} has no worker inputs")


class JobStream:
    """Thread-safe, deterministic sequence of ``POST /v1/jobs`` bodies.

    Fresh specs are ``ScenarioGenerator(seed)`` draws in order. With
    ``repeat_share`` > 0 a seeded coin decides per request whether to
    resend one of the bodies already handed out instead.
    """

    def __init__(self, seed: int, lane: str, repeat_share: float = 0.0) -> None:
        from repro.scenarios import ScenarioGenerator

        self._generator = ScenarioGenerator(seed)
        self._rng = random.Random(f"serve:{lane}:{seed}")
        self._lane = lane
        self._repeat_share = repeat_share
        self._sent: List[dict] = []
        self._lock = threading.Lock()

    def fresh(self) -> dict:
        with self._lock:
            return self._fresh()

    def _fresh(self) -> dict:
        body = {"scenario": self._generator.draw().to_doc(), "lane": self._lane}
        self._sent.append(body)
        return body

    def next(self) -> dict:
        with self._lock:
            if self._sent and self._rng.random() < self._repeat_share:
                return self._sent[self._rng.randrange(len(self._sent))]
            return self._fresh()

    def envelope(self, size: int) -> List[dict]:
        with self._lock:
            return [self._fresh() for _ in range(size)]
