"""Caching must not change physics.

The memo layers (core-level LRU, chip-level LRU, and the runtime's
group-state memo) exist purely for speed: a cached answer must be the
byte-identical float pair the solver would have produced. These tests
compare default models against models with every cache disabled
(``max_size=0``), both at the query level and end to end through the
MPI runtime, and pin the memo accounting of a fixed query sequence.

Re-record the accounting pin (only for a deliberate change to the memo
layers, with a CHANGES.md note) with
``PYTHONPATH=src python -m tests.smt.test_cache_equivalence``.
"""

import hashlib
import json
import random
import struct
from pathlib import Path

import pytest

from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.instructions import BASE_PROFILES
from repro.workloads.generators import barrier_loop_programs

HPC = BASE_PROFILES["hpc"]
DFT = BASE_PROFILES["dft"]
MEM = BASE_PROFILES["mem"]

MEMO_PINS = Path(__file__).with_name("memo_pin.json")
#: Cache-size settings of the memo pin: (core_cache_size, chip_cache_size).
MEMO_SETTINGS = ((65536, 16384), (65536, 0), (0, 16384), (0, 0))


def _uncached_model():
    return AnalyticThroughputModel(core_cache_size=0, chip_cache_size=0)


class TestModelEquivalence:
    def test_core_ipc_identical(self):
        cached = AnalyticThroughputModel()
        uncached = _uncached_model()
        for pa in (2, 4, 6):
            for pb in (0, 3, 5):
                for a, b in ((HPC, DFT), (MEM, None), (DFT, DFT)):
                    assert cached.core_ipc(a, b, pa, pb) == uncached.core_ipc(
                        a, b, pa, pb
                    )

    def test_core_ipc_repeat_query_identical(self):
        """The second (cached) answer equals a fresh solve of the same key."""
        cached = AnalyticThroughputModel()
        first = cached.core_ipc(HPC, DFT, 4, 5)
        again = cached.core_ipc(HPC, DFT, 4, 5)
        assert again == first == _uncached_model().core_ipc(HPC, DFT, 4, 5)

    def test_chip_ipc_identical(self):
        cached = AnalyticThroughputModel()
        uncached = _uncached_model()
        states = ((HPC, DFT, 4, 6), (MEM, None, 4, 4))
        assert cached.chip_ipc(states) == uncached.chip_ipc(states)
        # Warm hit equals the uncached recompute too.
        assert cached.chip_ipc(states) == uncached.chip_ipc(states)

    def test_disabled_caches_track_misses_only(self):
        uncached = _uncached_model()
        uncached.core_ipc(HPC, DFT, 4, 5)
        uncached.core_ipc(HPC, DFT, 4, 5)
        stats = uncached.cache_stats()
        assert stats.hits == 0
        assert stats.misses >= 2
        assert stats.size == 0


class TestRuntimeEquivalence:
    def test_traces_identical_with_uncached_model(self):
        """Both ranks share core 0; the cached and uncached runs must
        agree to the last bit (the memo keys are exact, see the module
        docstring of :mod:`repro.smt.analytic`)."""
        results = []
        for cached in (True, False):
            system = System(SystemConfig())
            if not cached:
                system.model = _uncached_model()
            results.append(
                system.run(
                    barrier_loop_programs([1e9, 3e9], iterations=5),
                    ProcessMapping.identity(2),
                    priorities={0: 6, 1: 4},
                )
            )
        warm, cold = results
        assert warm.total_time == cold.total_time
        assert warm.events_processed == cold.events_processed
        warm_trace = [
            [(iv.start, iv.end, iv.state) for iv in tl.intervals] for tl in warm.trace
        ]
        cold_trace = [
            [(iv.start, iv.end, iv.state) for iv in tl.intervals] for tl in cold.trace
        ]
        assert warm_trace == cold_trace

    def test_cache_stats_report_reuse(self):
        system = System(SystemConfig())
        programs = lambda: barrier_loop_programs([1e9, 2e9], iterations=3)
        system.run(programs(), ProcessMapping.identity(2))
        before = system.model.cache_stats()
        system.run(programs(), ProcessMapping.identity(2))
        after = system.model.cache_stats()
        assert after.hits > before.hits  # second run rides the memo
        assert after.misses == before.misses  # ... without new solves


def _memo_queries():
    """A fixed mixed sequence of chip (and some core) queries with repeats:
    2- and 4-core chips drawn from a small pool, so both memo levels see
    hits and misses."""
    rng = random.Random(7)
    loads = (None,) + tuple(BASE_PROFILES[n] for n in sorted(BASE_PROFILES))
    pool = []
    for _ in range(24):
        n_cores = rng.choice((2, 4))
        pool.append(tuple(
            (rng.choice(loads), rng.choice(loads),
             rng.randint(1, 7), rng.randint(1, 7))
            for _ in range(n_cores)
        ))
    queries = []
    for i in range(96):
        state = rng.choice(pool)
        queries.append(("chip", state))
        if i % 8 == 0:
            queries.append(("core", state[0]))
    return queries


def memo_table() -> dict:
    """The pin document: per cache setting, a digest of every answer and
    the combined memo accounting after the sequence."""
    rows = []
    for core_size, chip_size in MEMO_SETTINGS:
        model = AnalyticThroughputModel(
            core_cache_size=core_size, chip_cache_size=chip_size
        )
        digest = hashlib.sha256()
        for kind, state in _memo_queries():
            result = model.chip_ipc(state) if kind == "chip" else (model.core_ipc(*state),)
            for xa, xb in result:
                digest.update(struct.pack("<dd", xa, xb))
        stats = model.cache_stats()
        rows.append({
            "core_cache_size": core_size,
            "chip_cache_size": chip_size,
            "sha256": digest.hexdigest(),
            "hits": stats.hits,
            "misses": stats.misses,
            "size": stats.size,
        })
    return {"settings": rows}


class TestMemoAccountingPin:
    """Answers and ``cache_stats()`` of a fixed query sequence under every
    on/off combination of the two memo levels, as recorded: a change to
    the lookup path must issue the same gets and puts in the same order."""

    @pytest.mark.parametrize("setting", range(len(MEMO_SETTINGS)))
    def test_setting_matches_the_recorded_accounting(self, setting):
        pinned = json.loads(MEMO_PINS.read_text())["settings"][setting]
        actual = memo_table()["settings"][setting]
        assert actual == pinned

    def test_every_setting_gives_the_same_answers(self):
        pinned = json.loads(MEMO_PINS.read_text())["settings"]
        assert len({row["sha256"] for row in pinned}) == 1
        assert pinned[0]["hits"] > 0 and pinned[-1]["hits"] == 0


if __name__ == "__main__":
    rows = ",\n".join(f"  {json.dumps(r)}" for r in memo_table()["settings"])
    MEMO_PINS.write_text(f'{{\n "settings": [\n{rows}\n ]\n}}\n')
    print(f"wrote {MEMO_PINS}")
