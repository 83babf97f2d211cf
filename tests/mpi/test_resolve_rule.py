"""The re-solve rule: dirty core groups wait for a step in which a rank computes.

Only computing ranks read their rates, so a re-solve in a step where no
rank computes is never read. The runtime skips it and keeps the groups
dirty until some rank computes. These tests pin the skipped count on a
small loop, and hold runs byte-exact: against the full-recompute
reference (``incremental_rates=False``) under the live invariant
checker, and against digests recorded before the rule existed, for both
throughput models on the one runtime path. A compute over an unchanged
load (``spin`` over the spin posture) must still run at that load's rate.
"""

import hashlib

import pytest

from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import MpiRuntime, RunLayout, RuntimeConfig
from repro.policies.corpus import tournament_corpus
from repro.scenarios.engines import CycleEngine, FluidEngine
from repro.scenarios.generator import ScenarioGenerator
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.chip import ChipConfig
from repro.smt.throughput import ThroughputTable
from repro.trace.events import RankState
from repro.workloads.generators import barrier_loop_programs

#: sha256 over the trace digests of ``tournament_corpus(name, 8, 3)``,
#: recorded with a runtime that re-solved in every step with a change.
CORPUS_PINS = {
    "mixed": "6eb78607116fce17a728e95638f023bf7dc88afc914ef2e90d538378a907b9cc",
    "cluster": "bfc5fa3d8674f096be722e19b497890a182f354a4de955d77297f9ce4fe65965",
}

#: Trace digests of the first three ``ScenarioGenerator(5)`` scenarios on
#: the cycle model (short windows, seed 0), recorded the same way.
CYCLE_PINS = (
    ("fuzz-5-1", "84687bb84d837123120354938ca38343017d1d39bdf9644a37688dabcebb79d2"),
    ("fuzz-5-2", "b93a7a979cee7a847a093c505fbc14f991ac246521c93fad701ccb1a63d0062b"),
    ("fuzz-5-3", "f8167146d51ab05f5511d46643f06b4b6cd4befb8649bbf9182264310f17c55e"),
)


class TestSkippedResolves:
    def test_one_iteration_barrier_loop_resolves_five_times(self):
        """5 ranks on 4 cores: the final step, where every rank waits at
        the barrier, changes loads but no rank computes."""
        system = System(SystemConfig(chip=ChipConfig(n_cores=4)))
        chip, hmt, _scheduler, kernel = system.build_machine()
        runtime = MpiRuntime(
            chip=chip,
            kernel=kernel,
            hmt=hmt,
            model=AnalyticThroughputModel(),
            programs=barrier_loop_programs(
                [1e9, 2e9, 1.5e9, 3e9, 2.5e9], iterations=1
            ),
            layout=RunLayout(chip, ProcessMapping.identity(5).as_dict()),
        )
        result = runtime.run()
        assert runtime.group_recompute_counts == [5]
        assert result.events_processed == 6
        assert result.total_time == 0.8701221575585993


class TestReferenceParity:
    @pytest.mark.parametrize("corpus", sorted(CORPUS_PINS))
    def test_corpus_matches_full_recompute_and_pin(self, corpus):
        digests = hashlib.sha256()
        for spec in tournament_corpus(corpus, 8, 3):
            fast = FluidEngine().run(spec, options={"check_invariants": True})
            reference = FluidEngine().run(
                spec,
                options={"incremental_rates": False, "check_invariants": True},
            )
            assert fast.digest == reference.digest, spec.name
            assert fast.total_time == reference.total_time, spec.name
            digests.update(fast.digest.encode())
        assert digests.hexdigest() == CORPUS_PINS[corpus]

    def test_cycle_model_matches_recorded_digests(self):
        table = ThroughputTable(warmup_cycles=500, measure_cycles=2000, seed=0)
        specs = ScenarioGenerator(5).take(len(CYCLE_PINS))
        for spec, (name, digest) in zip(specs, CYCLE_PINS):
            assert spec.name == name
            run = CycleEngine().run(spec, options={"table": table})
            assert run.digest == digest, name


def _spin_compute_durations(wait_mode, n_ranks):
    """Rank 0 computes, waits for an eager message, then computes ``spin``.

    Rank 1 finishes before the message lands, so with two ranks every
    rank waits for a step; a third rank keeps computing throughout.
    """

    def rank0(mpi):
        yield mpi.compute(1e8, profile="hpc")
        yield mpi.recv(1)
        yield mpi.compute(1e9, profile="spin")

    def rank1(mpi):
        yield mpi.compute(1e9, profile="int")
        yield mpi.send(0, 0, 1024)

    def rank2(mpi):
        yield mpi.compute(2e10, profile="hpc")

    system = System(SystemConfig(runtime=RuntimeConfig(wait_mode=wait_mode)))
    result = system.run(
        [rank0, rank1, rank2][:n_ranks],
        mapping=ProcessMapping.identity(n_ranks),
    )
    return [
        iv.duration
        for iv in result.trace[0].intervals
        if iv.state is RankState.COMPUTE
    ]


class TestComputeOverWaitPosture:
    @pytest.mark.parametrize("n_ranks", [2, 3], ids=["all-wait", "one-computes"])
    def test_spin_compute_gets_its_own_rate(self, n_ranks):
        """Computing ``spin`` over the spin posture changes no load, yet the
        rank must run at the spin rate, not its previous ``hpc`` rate. In
        block mode the load does change, which gives the reference."""
        (hpc, spin) = _spin_compute_durations("spin", n_ranks)
        (_, reference) = _spin_compute_durations("block", n_ranks)
        assert spin == pytest.approx(reference, rel=1e-12)
        assert spin != pytest.approx(10 * hpc, rel=1e-3)
