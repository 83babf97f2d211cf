"""The per-mapping run layout a System builds once and reuses.

What a run needs from (machine, mapping) alone — the validated rank ->
CPU dict, each rank's hardware slot, the core groups and, on several
nodes, the rank-pair cost table — is a :class:`RunLayout`, built on a
mapping's first run and handed to every later run with that mapping.
Reuse must be invisible in the results; a mapping that fails
validation is never cached, so it fails on every run.
"""

import pickle

import pytest

from repro.errors import MappingError
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import MpiRuntime, RunLayout
from repro.scenarios.engines import trace_digest
from repro.smt.chip import ChipConfig, Power5Chip
from repro.workloads.generators import barrier_loop_programs, distant_pairs_programs

A = ProcessMapping.from_dict({0: 0, 1: 1, 2: 2, 3: 4, 4: 6})
B = ProcessMapping.from_dict({0: 6, 1: 0, 2: 3, 3: 2, 4: 4})
PRIORITIES = {0: 5, 1: 6, 2: 6, 3: 5, 4: 6}


def _chip_system():
    return System(SystemConfig(chip=ChipConfig(n_cores=4)))


def _run(system, mapping):
    programs = barrier_loop_programs([1.2e9, 2.1e9, 0.8e9, 1.7e9, 1.4e9], iterations=2)
    return system.run(programs, mapping=mapping, priorities=PRIORITIES)


class _RawMapping:
    """A mapping built without ProcessMapping's own checks, so that the
    run's validation is what rejects it."""

    def __init__(self, pairs):
        self.rank_to_cpu = tuple(pairs)
        self.n_ranks = len(self.rank_to_cpu)

    def as_dict(self):
        return dict(self.rank_to_cpu)


class TestReuse:
    def test_reused_system_matches_a_fresh_system_per_run(self):
        reused = _chip_system()
        got = [trace_digest(_run(reused, m)) for m in (A, B, A)]
        fresh = [trace_digest(_run(_chip_system(), m)) for m in (A, B, A)]
        assert got == fresh
        assert got[0] == got[2] != got[1]

    def test_one_layout_per_mapping(self):
        system = _chip_system()
        chip = system.build_machine()[0]
        layout = system.run_layout(chip, A)
        assert system.run_layout(chip, ProcessMapping.from_dict(A.as_dict())) is layout
        assert system.run_layout(chip, B) is not layout

    def test_cluster_reuse_matches_fresh_systems(self):
        config = SystemConfig(n_nodes=2)
        near = ProcessMapping.from_dict({0: 0, 1: 1, 2: 4, 3: 5})
        far = ProcessMapping.from_dict({0: 0, 1: 4, 2: 1, 3: 5})

        def run(system, mapping):
            programs = distant_pairs_programs([1e9, 1.5e9, 2e9, 1.2e9], iterations=2)
            return trace_digest(system.run(programs, mapping=mapping))

        reused = System(config)
        got = [run(reused, m) for m in (near, far, near)]
        assert got == [run(System(config), m) for m in (near, far, near)]
        assert got[0] != got[1]


class TestValidation:
    @pytest.mark.parametrize(
        "pairs",
        [
            ((0, 0), (1, 0)),  # a reused cpu
            ((0, 0), (1, 8)),  # cpu out of range (a 4-core chip has 8)
            ((0, 0), (2, 1)),  # ranks not 0..n-1
        ],
    )
    def test_invalid_mapping_raises_on_every_run(self, pairs):
        system = _chip_system()

        def prog(mpi):
            yield mpi.barrier()

        for _ in range(3):
            with pytest.raises(MappingError):
                system.run([prog, prog], mapping=_RawMapping(pairs))
        assert len(system._layouts) == 0

    def test_layout_rejects_the_same_mappings(self):
        chip = Power5Chip(ChipConfig(n_cores=4))
        for bad in ({0: 0, 1: 0}, {0: 0, 1: 8}, {0: 0, 2: 1}, {0: -1}):
            with pytest.raises(MappingError):
                RunLayout(chip, bad)

    def test_runtime_rejects_a_layout_of_another_rank_count(self):
        system = _chip_system()
        chip, hmt, _scheduler, kernel = system.build_machine()
        with pytest.raises(MappingError):
            MpiRuntime(
                chip=chip, kernel=kernel, hmt=hmt, model=system.model,
                programs=barrier_loop_programs([1e9] * 4, iterations=1),
                layout=system.run_layout(chip, A),
            )

    def test_runtime_rejects_a_layout_of_another_machine(self):
        system = _chip_system()
        chip, hmt, _scheduler, kernel = system.build_machine()
        small = RunLayout(Power5Chip(), {0: 0, 1: 1})
        with pytest.raises(MappingError):
            MpiRuntime(
                chip=chip, kernel=kernel, hmt=hmt, model=system.model,
                programs=barrier_loop_programs([1e9] * 2, iterations=1),
                layout=small,
            )


class TestLayout:
    def test_contents(self):
        chip = Power5Chip(ChipConfig(n_cores=2), n_nodes=2)
        layout = RunLayout(chip, {1: 5, 0: 2})
        assert dict(layout.mapping) == {0: 2, 1: 5}
        assert list(layout.mapping) == [0, 1]
        assert layout.slots == ((2, 1, 0), (5, 2, 1))
        assert layout.core_groups == [[0, 1], [2, 3]]
        assert layout.group_of_core == {0: 0, 1: 0, 2: 1, 3: 1}
        assert layout.n_ranks == 2 and layout.world.size == 2
        assert layout.pair_costs is None

    def test_mapping_is_read_only(self):
        layout = RunLayout(Power5Chip(), {0: 0, 1: 1})
        with pytest.raises(TypeError):
            layout.mapping[0] = 3

    def test_cache_is_bounded(self):
        system = System(SystemConfig(chip=ChipConfig(n_cores=8)))
        chip = system.build_machine()[0]
        limit = System.LAYOUT_CACHE_SIZE
        pairs = [(a, b) for a in range(16) for b in range(16) if a != b]
        for a, b in pairs[: limit + 8]:
            system.run_layout(chip, ProcessMapping.from_dict({0: a, 1: b}))
        assert len(system._layouts) == limit


class TestPickling:
    def test_pickled_system_leaves_the_layouts_behind(self):
        system = System(SystemConfig(n_nodes=2))
        mapping = ProcessMapping.from_dict({0: 0, 1: 4})
        programs = barrier_loop_programs([1e9, 2e9], iterations=2)
        before = trace_digest(system.run(programs, mapping=mapping))
        assert len(system._layouts) == 1  # holds a pair-cost closure

        clone = pickle.loads(pickle.dumps(system))
        assert len(clone._layouts) == 0
        assert len(system._layouts) == 1
        programs = barrier_loop_programs([1e9, 2e9], iterations=2)
        assert trace_digest(clone.run(programs, mapping=mapping)) == before
