"""Engine registry and backend contracts.

The cross-model *physics* agreement lives with the differential oracle
(tests/oracle); here we pin the execution interface itself: registry
lookup, option validation, result provenance, and the guarantee that
every registered backend accepts every scenario the generator draws.
"""

import dataclasses

import pytest

from repro.cluster.spec import TopologySpec
from repro.errors import ConfigurationError
from repro.machine.system import System, SystemConfig
from repro.oracle.golden import default_records
from repro.policies import TournamentConfig, run_tournament
from repro.scenarios import (
    Engine,
    FluidEngine,
    ScenarioGenerator,
    ScenarioSpec,
    all_engines,
    engine_for_model,
    engine_names,
    fast_cycle_table,
    get_engine,
    register,
)
from repro.scenarios import engines as engines_module
from repro.scenarios import registry as registry_module
from repro.telemetry import MetricRegistry, set_default_registry

SPEC = ScenarioSpec(
    name="engine-smoke",
    kind="barrier_loop",
    works=(1.0e9, 2.0e9),
    iterations=2,
    priorities=((0, 4), (1, 6)),
)


class TestRegistry:
    def test_default_backends_registered(self):
        assert engine_names() == ("analytic", "cycle", "fluid")
        assert [e.name for e in all_engines()] == ["analytic", "cycle", "fluid"]

    def test_unknown_engine_raises(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            get_engine("quantum")

    def test_duplicate_registration_requires_replace(self):
        class Dupe(Engine):
            name = "fluid"

        with pytest.raises(ConfigurationError, match="already registered"):
            register(Dupe())
        assert type(get_engine("fluid")).__name__ == "FluidEngine"

    def test_register_and_replace(self):
        class Custom(Engine):
            name = "custom-test-engine"
            description = "registry test stand-in"

        try:
            first = register(Custom())
            assert get_engine("custom-test-engine") is first
            second = register(Custom(), replace=True)
            assert get_engine("custom-test-engine") is second
        finally:
            # No public unregister (production engines are permanent);
            # tests clean their stand-in out of the module table.
            with registry_module._LOCK:
                registry_module._ENGINES.pop("custom-test-engine", None)
        assert "custom-test-engine" not in engine_names()

    def test_nameless_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="no name"):
            register(Engine())

    def test_model_knob_maps_to_engine(self):
        # The "analytic" System *model* drives the fluid runtime; the
        # closed-form "analytic" engine has no System model at all.
        assert engine_for_model("analytic") == "fluid"
        assert engine_for_model("cycle") == "cycle"
        with pytest.raises(ConfigurationError):
            engine_for_model("fluid")


class TestOptionValidation:
    @pytest.mark.parametrize("name", ["fluid", "cycle", "analytic"])
    def test_unknown_option_rejected(self, name):
        engine = get_engine(name)
        with pytest.raises(ConfigurationError, match="does not accept"):
            engine.run(SPEC, options={"turbo": True})

    def test_analytic_rejects_system_arg(self):
        with pytest.raises(ConfigurationError, match="system"):
            get_engine("analytic").run(SPEC, system=object())

    def test_cycle_rejects_table_and_table_path_together(self):
        with pytest.raises(ConfigurationError, match="not both"):
            get_engine("cycle").run(
                SPEC,
                options={"table": fast_cycle_table(), "table_path": "x.json"},
            )


class TestResultProvenance:
    def test_fluid_result_carries_trace_provenance(self):
        result = get_engine("fluid").run(SPEC)
        assert result.engine == "fluid"
        assert result.spec_fingerprint == SPEC.fingerprint
        assert result.label == "scenario.engine-smoke"
        assert result.digest is not None
        assert result.imbalance_percent is not None
        assert result.events_processed > 0
        assert len(result.ranks) == SPEC.n_ranks
        assert result.run is not None
        doc = result.to_doc()
        assert doc["digest"] == result.digest

    def test_fluid_is_deterministic(self):
        a = get_engine("fluid").run(SPEC)
        b = get_engine("fluid").run(SPEC)
        assert a.digest == b.digest
        assert a.total_time == b.total_time

    def test_analytic_result_is_closed_form(self):
        result = get_engine("analytic").run(SPEC, label="custom-label")
        assert result.engine == "analytic"
        assert result.label == "custom-label"
        assert result.digest is None
        assert result.run is None
        assert result.total_time > 0.0
        assert "digest" not in result.to_doc()


class TestLazySummary:
    """The run summary (digest, final priorities, rank docs) is built
    from the kept run only when read, and reads back exactly what an
    eager build from the same run gives."""

    GOLDEN = next(
        ScenarioSpec.from_doc(doc)
        for kind, name, doc in default_records()
        if kind == "trace" and name == "barrier-skewed"
    )

    @staticmethod
    def eager_summary(run):
        ranks = tuple(
            {
                "rank": r.rank,
                "compute": r.compute_fraction,
                "sync": r.sync_fraction,
                "comm": r.comm_fraction,
                "noise": r.noise_fraction,
                "idle": r.idle_fraction,
            }
            for r in run.stats.ranks
        )
        return engines_module.trace_digest(run), run.final_priorities, ranks

    def test_a_cluster_tournament_computes_no_digest(self, monkeypatch):
        calls = []
        real = engines_module.trace_digest

        def counting(run):
            calls.append(run.label)
            return real(run)

        monkeypatch.setattr(engines_module, "trace_digest", counting)
        run_tournament(TournamentConfig(
            policies=("st", "propshare"), corpus="cluster", n_scenarios=2,
            seed=4,
        ))
        assert calls == []
        result = get_engine("fluid").run(SPEC)
        assert result.digest == result.digest
        assert len(calls) == 1, "the digest is computed once, then cached"

    @pytest.mark.parametrize("engine", ["fluid", "cycle"])
    def test_lazy_reads_equal_an_eager_build(self, engine):
        options = {"table": fast_cycle_table()} if engine == "cycle" else None
        result = get_engine(engine).run(self.GOLDEN, options=options)
        digest, priorities, ranks = self.eager_summary(result.run)
        assert result.digest == digest
        assert result.final_priorities == priorities
        assert result.ranks == ranks
        assert result.to_doc() == {
            "engine": engine,
            "spec_fingerprint": self.GOLDEN.fingerprint,
            "label": result.run.label,
            "total_time": result.run.total_time,
            "compute_seconds": result.compute_seconds,
            "events_processed": result.run.events_processed,
            "final_priorities": list(priorities),
            "ranks": [dict(r) for r in ranks],
            "digest": digest,
            "imbalance_percent": result.run.imbalance_percent,
        }

    def test_equality_tells_runs_apart(self):
        fluid = get_engine("fluid")
        a, b = fluid.run(SPEC).run, fluid.run(self.GOLDEN).run

        def result(run):
            return engines_module.ExecutionResult(
                engine="fluid", spec_fingerprint="f", label="l",
                total_time=1.0, compute_seconds=0.0, run=run,
            )

        assert result(a) == result(a)
        assert result(a) != result(b)


class TestFluidWarmSystems:
    """The fluid engine keeps a bounded set of warm Systems per thread,
    keyed without the spec's seed, which its machine never reads."""

    def test_seeds_share_the_warm_systems_and_run_as_a_fresh_system(self):
        engine = FluidEngine()
        for seed in range(400):
            spec = dataclasses.replace(SPEC, seed=seed)
            fresh = System(SystemConfig(seed=seed)).run(
                spec.programs(),
                mapping=spec.mapping_obj(),
                priorities=spec.priority_dict(),
            )
            assert engine.run(spec).digest == engines_module.trace_digest(fresh)
        assert len(engine._systems) == 1

    def test_distinct_topologies_stay_within_the_bound(self):
        engine = FluidEngine()
        bound = FluidEngine.SYSTEM_CACHE_SIZE
        seen = []
        for n_nodes in range(1, bound + 4):
            engine.run(dataclasses.replace(SPEC, topology=TopologySpec(n_nodes)))
            stats = engine._model_cache_stats()
            seen.append((stats.hits, stats.misses))
            assert len(engine._systems) == min(n_nodes, bound)
        # An evicted System's memo counts stay in the pulled totals, and
        # every new (cold) System adds misses.
        assert all(
            b[0] >= a[0] and b[1] > a[1] for a, b in zip(seen, seen[1:])
        )


class TestEveryBackendAcceptsEveryDraw:
    """The registry contract the conformance oracle leans on: any spec
    the generator can draw runs on every registered backend."""

    DRAWS = 3

    @pytest.fixture(scope="class")
    def specs(self):
        return ScenarioGenerator(seed=11).take(self.DRAWS)

    @pytest.fixture(scope="class")
    def cycle_table(self):
        # Shared short-window table: repeated (loads, prios) keys are
        # measured once across the whole draw set.
        return fast_cycle_table(seed=11)

    def test_all_engines_run_all_draws(self, specs, cycle_table):
        for spec in specs:
            for engine in all_engines():
                options = (
                    {"table": cycle_table} if engine.name == "cycle" else None
                )
                result = engine.run(spec, options=options)
                assert result.engine == engine.name
                assert result.spec_fingerprint == spec.fingerprint
                assert result.total_time > 0.0
                if engine.name == "analytic":
                    assert result.digest is None
                else:
                    assert result.digest is not None

    def test_generator_draws_round_trip(self, specs):
        for spec in specs:
            assert ScenarioSpec.from_doc(spec.to_doc()) == spec


class TestCycleEngineTopology:
    """The cycle engine runs topology specs on a multi-node System."""

    @pytest.fixture(scope="class")
    def table(self):
        return fast_cycle_table(seed=3)

    def test_one_node_twin_has_the_single_chip_digest(self, table):
        doc = SPEC.to_doc()
        doc["topology"] = {"n_nodes": 1}
        doc["spec_version"] = 3
        twin = ScenarioSpec.from_doc(doc)
        cycle = get_engine("cycle")
        base = cycle.run(SPEC, options={"table": table})
        clustered = cycle.run(twin, options={"table": table})
        assert clustered.digest == base.digest
        assert clustered.total_time == base.total_time

    def test_two_node_spec_runs_and_is_labelled_by_nodes(self, table):
        spec = ScenarioSpec(
            name="cycle-two-nodes",
            kind="distant_pairs",
            works=(1.0e9, 2.0e9, 1.5e9, 2.5e9),
            iterations=2,
            mapping={0: 0, 1: 4, 2: 1, 3: 5},
            topology={"n_nodes": 2},
        )
        registry = MetricRegistry()
        previous = set_default_registry(registry)
        try:
            result = get_engine("cycle").run(spec, options={"table": table})
        finally:
            set_default_registry(previous)
        assert result.total_time > 0.0
        assert result.digest is not None
        runs = registry.get("repro_engine_runs_total")
        assert runs.labels("cycle", "2").value == 1.0
