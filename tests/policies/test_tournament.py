"""The tournament runner, its leaderboard artifact and the paper's bars."""

import json

import pytest

from repro.errors import ConfigurationError, PersistenceError, ValidationError
from repro.policies import (
    ALLOCATION_POLICIES,
    DEFAULT_POLICIES,
    Leaderboard,
    PLACEMENT_POLICIES,
    TournamentConfig,
    apply_policy,
    get_policy,
    planning_works,
    run_tournament,
)
from repro.policies.corpus import tournament_corpus
from repro.policies.tournament import CASE_D_DOCUMENTED_LOSS_PERCENT
from repro.scenarios import ScenarioSpec
from repro.scenarios.engines import FluidEngine


def small_config(**overrides):
    defaults = dict(
        policies=("st", "paper-c", "propshare", "hysteresis"),
        corpus="mixed",
        n_scenarios=6,
        seed=11,
    )
    defaults.update(overrides)
    return TournamentConfig(**defaults)


class TestConfig:
    def test_round_trip(self):
        config = small_config()
        assert TournamentConfig.from_doc(config.to_doc()) == config
        assert TournamentConfig.from_doc(config.to_doc()).fingerprint == (
            config.fingerprint
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TournamentConfig(policies=())
        with pytest.raises(ConfigurationError):
            TournamentConfig(policies=("st", "st"))
        with pytest.raises(ConfigurationError):
            TournamentConfig(corpus="chaos")
        with pytest.raises(ConfigurationError):
            TournamentConfig(n_scenarios=0)

    def test_from_doc_strict(self):
        doc = small_config().to_doc()
        doc["budget"] = 7
        with pytest.raises(ValidationError):
            TournamentConfig.from_doc(doc)
        with pytest.raises(ValidationError):
            TournamentConfig.from_doc({"corpus": "mixed"})


class TestPlanningWorks:
    def test_plain_body(self):
        spec = ScenarioSpec(
            name="x", kind="barrier_loop", works=(1e9, 2e9), iterations=3
        )
        assert planning_works(spec) == (3e9, 6e9)

    def test_btmz_includes_balanced_init(self):
        spec = ScenarioSpec(
            name="x", kind="btmz", works=(1e9, 3e9), iterations=2
        )
        init = 4.0 * 2e9  # default init_factor x mean body work
        assert planning_works(spec) == (init + 2e9, init + 6e9)

    def test_siesta_includes_edges(self):
        spec = ScenarioSpec(
            name="x",
            kind="siesta",
            works=(1e9, 2e9),
            iterations=2,
            params={
                "init_works": (5e8, 5e8),
                "final_works": (1e8, 2e8),
            },
        )
        assert planning_works(spec) == (5e8 + 2e9 + 1e8, 5e8 + 4e9 + 2e8)


class TestApplyPolicy:
    def test_static_noop_keeps_spec_identity(self):
        spec = ScenarioSpec(
            name="flat", kind="barrier_loop", works=(2e9, 2e9, 2e9, 2e9),
            iterations=2,
        )
        planned, options = apply_policy(get_policy("propshare"), spec)
        assert planned is spec
        assert options is None

    def test_static_writes_become_spec_priorities(self):
        spec = ScenarioSpec(
            name="skew", kind="barrier_loop", works=(1e9, 8e9, 1e9, 8e9),
            iterations=2,
        )
        planned, options = apply_policy(get_policy("propshare"), spec)
        assert options is None
        assert planned.priorities != ()
        assert planned.fingerprint != spec.fingerprint

    def test_dynamic_returns_fresh_controller_factory(self):
        spec = ScenarioSpec(
            name="skew", kind="barrier_loop", works=(1e9, 8e9), iterations=2
        )
        planned, options = apply_policy(get_policy("hysteresis"), spec)
        assert planned is spec
        (controller_a,) = options["controllers"]()
        (controller_b,) = options["controllers"]()
        assert controller_a is not controller_b


class TestDeterminism:
    def test_identical_fingerprint_on_repeat(self):
        config = small_config()
        assert run_tournament(config).fingerprint == (
            run_tournament(config).fingerprint
        )

    def test_batch_equals_scalar(self):
        config = small_config()
        batched = run_tournament(config, batch=True)
        scalar = run_tournament(config, batch=False)
        assert batched.fingerprint == scalar.fingerprint
        assert batched == scalar

    def test_seed_moves_the_board(self):
        a = run_tournament(small_config(seed=1))
        b = run_tournament(small_config(seed=2))
        assert a.fingerprint != b.fingerprint


class CountingEngine(FluidEngine):
    """A fluid engine that logs every simulated cell."""

    def __init__(self):
        super().__init__()
        #: (label, spec fingerprint, ran with engine options) per run.
        self.runs = []

    def run(self, spec, label=None, system=None, options=None):
        self.runs.append((label, spec.fingerprint, options is not None))
        return super().run(spec, label=label, system=system, options=options)


#: A cluster-corpus board whose cells coincide: paper-c and paper-d
#: no-ops re-plan baseline cells, lpt re-plans propshare and paper-c
#: cells, and random-placement draws one baseline layout.
CLUSTER_BOARD = TournamentConfig(
    policies=DEFAULT_POLICIES + PLACEMENT_POLICIES,
    corpus="cluster",
    n_scenarios=4,
    seed=4,
)
#: Recorded with every cell simulated separately: sharing cells must not
#: move a single byte of the leaderboard.
CLUSTER_BOARD_FINGERPRINT = (
    "9df6bbe95a7f2a689220ad0dffe7db9fffa881414834cc409be012d94987078f"
)


def _planned_fingerprints(config):
    """Per policy: (cell fingerprints, carries engine options)."""
    specs = tournament_corpus(config.corpus, config.n_scenarios, config.seed)
    planned = {}
    for name in config.policies:
        cells = [apply_policy(get_policy(name), spec) for spec in specs]
        planned[name] = (
            [cell.fingerprint for cell, _ in cells],
            any(options is not None for _, options in cells),
        )
    return specs, planned


class TestCellMemo:
    def test_runs_baseline_plus_new_fingerprints_plus_option_cells(self):
        specs, planned = _planned_fingerprints(CLUSTER_BOARD)
        seen = {spec.fingerprint for spec in specs}
        expected = len(specs)
        for name in CLUSTER_BOARD.policies:
            fingerprints, has_options = planned[name]
            if has_options:
                expected += len(fingerprints)
            else:
                expected += len(set(fingerprints) - seen)
                seen.update(fingerprints)
        naive = len(specs) * (len(CLUSTER_BOARD.policies) + 1)
        assert expected < naive - len(specs), "the board shares no cells"
        engine = CountingEngine()
        run_tournament(CLUSTER_BOARD, engine=engine)
        assert len(engine.runs) == expected
        shared = [fp for _, fp, has_options in engine.runs if not has_options]
        assert len(shared) == len(set(shared)), "an option-less cell ran twice"

    def test_identical_plans_simulate_once(self):
        config = TournamentConfig(
            policies=("propshare", "lpt"), corpus="cluster", n_scenarios=4, seed=4
        )
        _, planned = _planned_fingerprints(config)
        common = set(planned["propshare"][0]) & set(planned["lpt"][0])
        assert common, "propshare and lpt plan no common cell on this corpus"
        engine = CountingEngine()
        run_tournament(config, engine=engine)
        for fingerprint in common:
            labels = [label for label, fp, _ in engine.runs if fp == fingerprint]
            assert len(labels) == 1
            assert labels[0].startswith("tournament.propshare.")

    def test_dynamic_cells_are_never_shared(self):
        config = small_config(policies=("st", "hysteresis"))
        engine = CountingEngine()
        board = run_tournament(config, engine=engine)
        controlled = [
            fp for label, fp, has_options in engine.runs
            if label.startswith("tournament.hysteresis.")
        ]
        # Every controlled cell plans the corpus spec itself (the same
        # fingerprint the baseline ran) and still runs, with its options.
        assert controlled == list(board.scenario_fingerprints)
        assert all(
            has_options
            for label, _, has_options in engine.runs
            if label.startswith("tournament.hysteresis.")
        )
        assert len(engine.runs) == 2 * config.n_scenarios

    def test_batch_and_scalar_share_cells_alike(self):
        batched, scalar = CountingEngine(), CountingEngine()
        a = run_tournament(CLUSTER_BOARD, batch=True, engine=batched)
        b = run_tournament(CLUSTER_BOARD, batch=False, engine=scalar)
        assert a.fingerprint == b.fingerprint
        assert batched.runs == scalar.runs

    def test_cluster_board_fingerprint_pinned(self):
        assert run_tournament(CLUSTER_BOARD).fingerprint == (
            CLUSTER_BOARD_FINGERPRINT
        )


class TestScoring:
    def test_st_scores_exactly_zero(self):
        board = run_tournament(small_config())
        st = board.score_of("st")
        assert st.mean_improvement_percent == 0.0
        assert st.worst_regression_percent == 0.0
        assert st.total_times == board.baseline_total_times

    def test_ranked_best_first(self):
        board = run_tournament(small_config())
        means = [s.mean_improvement_percent for s in board.scores]
        assert means == sorted(means, reverse=True)

    def test_trap_score_present_only_with_siesta_cells(self):
        mixed = run_tournament(small_config())
        assert all(
            s.trap_score_percent is not None for s in mixed.scores
        )
        fuzz = run_tournament(
            small_config(corpus="fuzz", policies=("st", "propshare"))
        )
        # Seed 11's first three fuzz draws contain no siesta scenario,
        # so the trap column is absent.
        if "siesta" not in fuzz.scenario_kinds:
            assert all(s.trap_score_percent is None for s in fuzz.scores)

    def test_dynamic_policy_needs_controller_hook(self):
        with pytest.raises(ConfigurationError):
            run_tournament(
                small_config(policies=("st", "hysteresis"), engine="analytic")
            )


class TestPaperAcceptance:
    """ISSUE 8's bars, scaled to test-suite size (CI-fast corpora)."""

    def test_dynamic_beats_every_static_on_migrating_bottlenecks(self):
        board = run_tournament(
            TournamentConfig(corpus="siesta", n_scenarios=12, seed=0)
        )
        dynamic = board.score_of("hysteresis").mean_improvement_percent
        statics = [
            s.mean_improvement_percent
            for s in board.scores
            if s.family == "static"
        ]
        assert statics, "no static contenders on the board"
        assert dynamic > max(statics)

    def test_no_policy_regresses_past_the_documented_case_d_loss(self):
        # The paper's own worst case: D shipped 17.24% slower than the
        # balanced reference. No zoo policy may do worse *in the mean*.
        for corpus in ("mixed", "siesta"):
            board = run_tournament(
                TournamentConfig(
                    corpus=corpus, n_scenarios=12, seed=0,
                    policies=DEFAULT_POLICIES,
                )
            )
            for score in board.scores:
                assert score.mean_improvement_percent >= (
                    -CASE_D_DOCUMENTED_LOSS_PERCENT
                ), f"{score.policy} regressed {score.mean_improvement_percent}"


class TestLeaderboardArtifact:
    def test_save_load_round_trip(self, tmp_path):
        board = run_tournament(small_config())
        path = str(tmp_path / "board.json")
        board.save(path)
        loaded = Leaderboard.load(path)
        assert loaded == board
        assert loaded.fingerprint == board.fingerprint

    def test_tamper_detected(self, tmp_path):
        board = run_tournament(small_config())
        path = str(tmp_path / "board.json")
        board.save(path)
        doc = json.loads(open(path).read())
        doc["baseline_total_times"][0] += 1.0
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(PersistenceError):
            Leaderboard.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            Leaderboard.load(str(tmp_path / "absent.json"))

    def test_from_doc_rejects_unknown_fields(self):
        board = run_tournament(small_config())
        doc = board.to_doc()
        doc["wall_seconds"] = 1.0
        with pytest.raises(ValidationError):
            Leaderboard.from_doc(doc)

    def test_wall_seconds_outside_identity(self):
        board = run_tournament(small_config())
        assert "wall_seconds" not in board.to_doc()
        relabelled = Leaderboard(
            config=board.config,
            scenario_fingerprints=board.scenario_fingerprints,
            scenario_kinds=board.scenario_kinds,
            baseline_total_times=board.baseline_total_times,
            scores=board.scores,
            wall_seconds=board.wall_seconds + 5.0,
        )
        assert relabelled == board

    def test_render_mentions_every_policy(self):
        board = run_tournament(small_config())
        rendered = board.render()
        for name in small_config().policies:
            assert name in rendered


class TestAllocationFamily:
    def test_apply_policy_rewrites_the_mapping(self):
        spec = ScenarioSpec(
            name="skew", kind="barrier_loop", works=(1e9, 2e9, 8e9, 6e9),
            iterations=2,
        )
        planned, options = apply_policy(get_policy("ilp-pair"), spec)
        assert options is None
        assert planned.priorities == ()  # the family never touches these
        # Heaviest (2) absorbs the lightest (0); 1 and 3 share the other core.
        pairs = {frozenset(g) for g in planned.mapping_obj().core_pairs()}
        assert pairs == {frozenset((0, 2)), frozenset((1, 3))}
        assert planned.fingerprint != spec.fingerprint

    def test_noop_plan_keeps_spec_identity(self):
        # paired-extremes on this skew reproduces the identity layout's
        # partition, so the spec object (and with it the fingerprint the
        # tournament scores from the baseline run) must survive untouched.
        spec = ScenarioSpec(
            name="already", kind="barrier_loop",
            works=(8e8, 2.4e9, 1.2e9, 2.0e9), iterations=2,
        )
        planned, options = apply_policy(get_policy("ilp-pair"), spec)
        assert planned is spec
        assert options is None

    def test_tournament_fields_all_three_families(self):
        board = run_tournament(
            TournamentConfig(
                policies=("st", "propshare", "hysteresis") + tuple(
                    ALLOCATION_POLICIES
                ),
                corpus="metbtmz",
                n_scenarios=4,
                seed=5,
            )
        )
        families = {s.family for s in board.scores}
        assert families == {"static", "dynamic", "allocation"}
        evidence = board.differential_evidence()
        assert evidence is not None
        assert "mapping vs priority" in evidence
        assert "axis wins this corpus" in evidence
        assert evidence in board.render()

    def test_allocation_family_runs_on_the_cluster_corpus(self):
        # 8-rank cluster cells need a 4-core mapping space, the random
        # control's lottery included.
        board = run_tournament(
            TournamentConfig(
                policies=("st",) + tuple(ALLOCATION_POLICIES),
                corpus="cluster",
                n_scenarios=2,
                seed=0,
            )
        )
        assert {s.policy for s in board.scores} == {"st"} | set(
            ALLOCATION_POLICIES
        )
        for score in board.scores:
            assert score.cells == 2

    def test_differential_evidence_needs_both_axes(self):
        board = run_tournament(small_config(n_scenarios=4))
        assert board.differential_evidence() is None
        assert "mapping vs priority" not in board.render()

    def test_placement_policy_is_a_noop_on_single_chip_specs(self):
        # No topology, nothing to place: the spec object itself must
        # survive so the cell is scored from the baseline run.
        spec = ScenarioSpec(
            name="flat", kind="barrier_loop",
            works=(1e9, 2e9, 1.5e9, 3e9), iterations=2,
        )
        planned, options = apply_policy(get_policy("locality-pack"), spec)
        assert planned is spec
        assert options is None

    def test_placement_policy_rewrites_the_cluster_mapping(self):
        spec = ScenarioSpec(
            name="ring", kind="distant_pairs",
            works=(1e9, 2e9, 1.5e9, 3e9, 1.2e9, 2.5e9, 1.8e9, 2.2e9),
            iterations=2, params={"exchange_bytes": 1 << 22},
            topology={"n_nodes": 2},
        )
        planned, options = apply_policy(get_policy("locality-pack"), spec)
        assert options is None
        assert planned.fingerprint != spec.fingerprint
        table = planned.mapping_obj().as_dict()
        for r in range(4):
            assert table[r] // 4 == table[r + 4] // 4

    def test_exact_mapping_noop_keeps_spec_identity(self):
        # A cluster spec already wearing the policy's target layout:
        # comparison is on exact CPUs (canonical() would repack ranks
        # across nodes), and the spec object must survive untouched.
        spec = ScenarioSpec(
            name="packed", kind="distant_pairs",
            works=(1e9, 2e9, 1.5e9, 3e9, 1.2e9, 2.5e9, 1.8e9, 2.2e9),
            iterations=2, params={"exchange_bytes": 1 << 22},
            topology={"n_nodes": 2},
            mapping={0: 0, 4: 1, 1: 2, 5: 3, 2: 4, 6: 5, 3: 6, 7: 7},
        )
        planned, options = apply_policy(get_policy("locality-pack"), spec)
        assert planned is spec
        assert options is None

    def test_tournament_scores_the_placement_family(self):
        board = run_tournament(
            TournamentConfig(
                policies=("st", "propshare", "hysteresis")
                + tuple(PLACEMENT_POLICIES),
                corpus="cluster",
                n_scenarios=4,
                seed=11,
            )
        )
        families = {s.family for s in board.scores}
        assert families == {"static", "dynamic", "placement"}
        by_name = {s.policy: s for s in board.scores}
        # Co-locating the pairs must beat both the network-maximal
        # contrast case and the blind lottery on this corpus.
        assert (
            by_name["locality-pack"].mean_improvement_percent
            > by_name["bandwidth-spread"].mean_improvement_percent
        )
        assert (
            by_name["locality-pack"].mean_improvement_percent
            > by_name["random-placement"].mean_improvement_percent
        )
        assert Leaderboard.from_doc(board.to_doc()) == board

    def test_evidence_is_not_part_of_the_canonical_doc(self):
        config = TournamentConfig(
            policies=("st", "propshare", "ilp-pair"),
            corpus="metbtmz",
            n_scenarios=4,
            seed=5,
        )
        board = run_tournament(config)
        assert board.differential_evidence() is not None
        doc = json.dumps(board.to_doc())
        assert "mapping vs priority" not in doc
        assert Leaderboard.from_doc(board.to_doc()) == board
