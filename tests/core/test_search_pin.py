"""Joint search, pinned byte for byte on the benchmark's search shape.

Five barrier-loop ranks (one iteration) on a 4-core chip, priority
levels 5-6, at most 2 levels between siblings: 800 candidates over all
25 symmetry-pruned mappings, each search on a fresh System. For two work
sets the pin holds the sha256 of the ranked rows ``[cpus, priorities,
time, imbalance]`` (best first, as compact JSON), the trace digest of the
winner re-run on the same System, and the search's evaluation count and
model-memo hits and misses. A change that only makes candidates cheaper
must leave every one of them as it is.
"""

import functools
import hashlib
import json

import pytest

from repro.core.search import joint_search
from repro.machine.system import System, SystemConfig
from repro.scenarios.engines import trace_digest
from repro.smt.chip import ChipConfig
from repro.workloads.generators import barrier_loop_programs

#: works -> (ranked rows sha256, winner digest, evaluations, hits, misses)
PINS = {
    (2077e6, 1568e6, 1223e6, 1816e6, 928e6): (
        "c639cd47109c11eed3963b1fc93b3916ba1ed861b96e7281360a349cde7516bc",
        "01d896102b7511085564a626cd4db3acd30f0db867016bc10d0225d8e76a0481",
        800, 25598, 3098,
    ),
    (3525e6, 602e6, 587e6, 1969e6, 1173e6): (
        "0cfa3619102b1110b4ca067d92b726511927e0a5dd71da62d634accae8692f10",
        "b7e5db0bc5dd7f915b72c06aca7ca12eec3d5d211db9177434eca3f702065217",
        800, 23140, 3060,
    ),
}


def _ranked_sha256(result) -> str:
    rows = [
        [
            [cpu for _rank, cpu in assignment.mapping.rank_to_cpu],
            [prio for _rank, prio in assignment.priorities],
            time_s,
            imbalance,
        ]
        for assignment, time_s, imbalance in result.entries
    ]
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize("works", sorted(PINS))
def test_joint_search_matches_its_pin(works):
    system = System(SystemConfig(chip=ChipConfig(n_cores=4)))
    factory = functools.partial(barrier_loop_programs, list(works), iterations=1)
    result = joint_search(
        system, factory, n_ranks=5, n_cores=4, levels=(5, 6), max_gap=2
    )
    best = result.best
    winner = system.run(
        list(factory()), mapping=best.mapping, priorities=best.priority_dict
    )
    got = (
        _ranked_sha256(result),
        trace_digest(winner),
        result.evaluated,
        result.stats.cache_hits,
        result.stats.cache_misses,
    )
    assert got == PINS[works]
