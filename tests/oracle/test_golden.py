"""Golden record/check replay, including the repo's own goldens."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import GoldenMismatchError, OracleError
from repro.oracle import golden
from repro.policies import LEADERBOARD_FORMAT, LEADERBOARD_VERSION, TournamentConfig
from repro.policies.corpus import CORPORA
from repro.policies.zoo import DEFAULT_POLICIES
from repro.scenarios import ScenarioSpec
from repro.util.fingerprint import fingerprint_doc
from tests.integration.test_property_runtime import prio_strategy, works_strategy

REPO_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden"
)

SMALL = ScenarioSpec(
    name="tiny-golden",
    kind="barrier_loop",
    works=(4.0e8, 9.0e8),
    iterations=2,
    priorities=((0, 4), (1, 5)),
)


def _default(kind):
    """The committed ``(kind, name, input)`` of the one record of ``kind``
    that is not a trace."""
    (entry,) = [r for r in golden.default_records() if r[0] == kind]
    return entry


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One fresh recording per kind, shared by the tamper tests (each
    edits its own copy)."""
    directory = str(tmp_path_factory.mktemp("golden"))
    return {
        "trace": golden.record(directory, "trace", "tiny", SMALL.to_doc()),
        "joint-search": golden.record(directory, *_default("joint-search")),
        "leaderboard": golden.record(directory, *_default("leaderboard")),
    }


def _tampered(src, tmp_path, edit):
    """Copy the record at ``src`` into ``tmp_path`` with ``edit`` applied."""
    with open(src) as fh:
        doc = json.load(fh)
    edit(doc)
    path = str(tmp_path / os.path.basename(src))
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class TestRecordCheck:
    def test_fresh_record_then_check_passes(self, recorded):
        doc = golden.load(recorded["trace"])
        assert doc["format"] == golden.GOLDEN_FORMAT
        assert doc["kind"] == "trace" and doc["name"] == "tiny"
        outcome = golden.check(recorded["trace"])
        assert outcome.ok and outcome.digest_equal
        assert outcome.replayed == doc["expected"]

    def test_tampered_metric_fails(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["total_time"] *= 1.5

        path = _tampered(recorded["trace"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match="total_time"):
            golden.check(path)

    def test_tampered_events_processed_fails(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["events_processed"] += 1

        path = _tampered(recorded["trace"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match="events_processed"):
            golden.check(path)

    @pytest.mark.parametrize("field", ["comm", "noise", "idle"])
    def test_tampered_rank_fraction_fails(self, recorded, tmp_path, field):
        def edit(doc):
            doc["expected"]["ranks"][1][field] += 1e-3

        path = _tampered(recorded["trace"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match=rf"ranks\[1\]\.{field}"):
            golden.check(path)

    def test_edited_scenario_detected_by_fingerprint(self, recorded, tmp_path):
        def edit(doc):
            doc["input"]["iterations"] = 5  # silent edit, stale fingerprint

        path = _tampered(recorded["trace"], tmp_path, edit)
        outcome = golden.check(path, strict=False)
        assert any("fingerprint" in m for m in outcome.mismatches)

    def test_tolerance_forgives_digest_but_not_metric_drift(
        self, recorded, tmp_path
    ):
        def edit(doc):
            doc["expected"]["trace_digest"] = "0" * 64

        path = _tampered(recorded["trace"], tmp_path, edit)
        outcome = golden.check(path, tolerance=0.01, strict=False)
        assert outcome.ok and not outcome.digest_equal
        with pytest.raises(GoldenMismatchError):
            golden.check(path, tolerance=0.0)

        def drift(doc):
            doc["expected"]["total_time"] *= 1.5

        path = _tampered(recorded["trace"], tmp_path, drift)
        with pytest.raises(GoldenMismatchError, match="total_time"):
            golden.check(path, tolerance=0.01)

    def test_zero_tolerance_is_exact(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["total_time"] *= 1 + 1e-15

        path = _tampered(recorded["trace"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match="total_time"):
            golden.check(path)
        assert golden.check(path, tolerance=1e-9).ok

    def test_version_gate(self, recorded, tmp_path):
        def edit(doc):
            doc["version"] = golden.GOLDEN_VERSION + 1

        path = _tampered(recorded["trace"], tmp_path, edit)
        with pytest.raises(OracleError, match="re-record"):
            golden.check(path)

    def test_unknown_kind_rejected(self, recorded, tmp_path):
        def edit(doc):
            doc["kind"] = "heatmap"

        path = _tampered(recorded["trace"], tmp_path, edit)
        with pytest.raises(OracleError, match="kind"):
            golden.check(path)

    def test_unreadable_and_missing_files(self, tmp_path):
        missing = str(tmp_path / "absent.golden.json")
        with pytest.raises(OracleError):
            golden.check(missing)
        bad = tmp_path / "bad.golden.json"
        bad.write_text("{not json")
        with pytest.raises(OracleError):
            golden.check(str(bad))
        with pytest.raises(OracleError):
            golden.check_all(str(tmp_path / "empty-dir"))


class TestRepoGoldens:
    """The committed goldens under tests/golden/ replay bit-exactly —
    this is the regression net every future PR runs through."""

    def test_directory_has_all_default_scenarios(self):
        names = {name for _, name, _ in golden.default_records()}
        files = {
            os.path.basename(p).replace(".golden.json", "")
            for p in golden.golden_paths(REPO_GOLDEN_DIR)
        }
        assert names <= files

    @pytest.mark.parametrize(
        "path",
        golden.golden_paths(REPO_GOLDEN_DIR),
        ids=lambda p: os.path.basename(p),
    )
    def test_replays_bit_exactly(self, path):
        outcome = golden.check(path)
        assert outcome.ok and outcome.digest_equal

    def test_trace_input_fingerprint_is_the_scenario_fingerprint(self):
        for path in golden.golden_paths(REPO_GOLDEN_DIR):
            doc = golden.load(path)
            if doc["kind"] == "trace":
                spec = ScenarioSpec.from_doc(doc["input"])
                assert doc["input_fingerprint"] == spec.fingerprint, path

    def test_batch_replay_bit_exact(self):
        """Every trace record through one run_batch call: the batch-path
        twin of the scalar replay, guarding the shared warm memo a batch
        reuses."""
        checks = golden.check_all(REPO_GOLDEN_DIR)
        paths = golden.golden_paths(REPO_GOLDEN_DIR)
        traces = [p for p in paths if golden.load(p)["kind"] == "trace"]
        assert [c.path for c in checks if not c.batch] == paths
        assert [c.path for c in checks if c.batch] == traces
        for outcome in checks:
            assert outcome.ok and outcome.digest_equal

    def test_batch_replay_empty_dir_raises(self, tmp_path):
        with pytest.raises(OracleError):
            golden.check_all(str(tmp_path))

    def test_record_all_reproduces_the_committed_files(self, tmp_path):
        paths = golden.record_all(str(tmp_path))
        assert sorted(paths) == golden.golden_paths(str(tmp_path))
        for path in paths:
            committed = os.path.join(REPO_GOLDEN_DIR, os.path.basename(path))
            with open(path, "rb") as fresh, open(committed, "rb") as pinned:
                assert fresh.read() == pinned.read(), path


class TestJointSearchGolden:
    """The joint-search golden: the whole pruned sweep replays — winner,
    candidate count and trace digest pinned."""

    def test_fresh_record_then_check_passes(self, recorded):
        doc = golden.load(recorded["joint-search"])
        assert doc["format"] == golden.GOLDEN_FORMAT
        assert doc["input"]["levels"] == [4, 5, 6]
        outcome = golden.check(recorded["joint-search"])
        assert outcome.ok
        assert outcome.replayed_digest == outcome.recorded_digest

    def test_tampered_winner_fails(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["best_time"] *= 1.01

        path = _tampered(recorded["joint-search"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match="best_time"):
            golden.check(path)
        outcome = golden.check(path, strict=False)
        assert not outcome.ok

    def test_tampered_mapping_fails(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["best_mapping"] = {"0": 1, "1": 0, "2": 2, "3": 3}

        path = _tampered(recorded["joint-search"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match="best_mapping"):
            golden.check(path)

    def test_tampered_imbalance_fails(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["best_imbalance_percent"] += 0.5

        path = _tampered(recorded["joint-search"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match="best_imbalance_percent"):
            golden.check(path)

    def test_tolerance_keeps_joint_search_exact(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["best_time"] *= 1 + 1e-9

        path = _tampered(recorded["joint-search"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match="best_time"):
            golden.check(path, tolerance=0.01)

    def test_edited_knobs_detected_by_fingerprint(self, recorded, tmp_path):
        def edit(doc):
            doc["input"]["max_gap"] = 1

        path = _tampered(recorded["joint-search"], tmp_path, edit)
        outcome = golden.check(path, strict=False)
        assert any("fingerprint" in m for m in outcome.mismatches)

    def test_version_gate(self, recorded, tmp_path):
        def edit(doc):
            doc["version"] = golden.GOLDEN_VERSION + 1

        path = _tampered(recorded["joint-search"], tmp_path, edit)
        with pytest.raises(OracleError):
            golden.check(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OracleError):
            golden.check(golden.golden_path(str(tmp_path), "joint-search"))

    def test_repo_joint_search_golden_replays(self):
        outcome = golden.check(golden.golden_path(REPO_GOLDEN_DIR, "joint-search"))
        assert outcome.ok
        assert outcome.replayed_digest == outcome.recorded_digest

    def test_joint_search_golden_is_not_a_trace_golden(self, recorded):
        # Its kind keeps it out of check_all's batch pass, which replays
        # trace records only.
        path = recorded["joint-search"]
        assert golden.load(path)["kind"] == "joint-search"
        directory = os.path.dirname(path)
        assert not any(
            c.batch and c.path == path for c in golden.check_all(directory)
        )


class TestLeaderboardGolden:
    """The golden tournament leaderboard: record once, replay forever."""

    def test_record_then_check(self, recorded):
        path = recorded["leaderboard"]
        assert os.path.basename(path) == "tournament-smoke.golden.json"
        outcome = golden.check(path)
        assert outcome.ok
        assert outcome.recorded_digest == outcome.replayed_digest

    def test_missing_recording(self, tmp_path):
        with pytest.raises(OracleError):
            golden.check(golden.golden_path(str(tmp_path), "tournament-smoke"))

    def test_drifted_recording_mismatches(self, recorded, tmp_path):
        # A recording of a *different* (still self-consistent) outcome:
        # nudge one baseline time and re-derive the fingerprint, so
        # replay cannot reproduce it.
        def edit(doc):
            board = doc["expected"]["leaderboard"]
            board["baseline_total_times"][0] += 0.5
            doc["expected"]["fingerprint"] = fingerprint_doc(board)

        path = _tampered(recorded["leaderboard"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError):
            golden.check(path)
        outcome = golden.check(path, strict=False)
        assert not outcome.ok and not outcome.digest_equal

    def test_tampered_score_field_fails(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["leaderboard"]["scores"][0]["mean_improvement_percent"] += 1e-3

        path = _tampered(recorded["leaderboard"], tmp_path, edit)
        with pytest.raises(
            GoldenMismatchError, match=r"scores\[0\]\.mean_improvement_percent"
        ):
            golden.check(path)
        assert golden.check(path, strict=False).digest_equal

    def test_tolerance_keeps_leaderboard_exact(self, recorded, tmp_path):
        def edit(doc):
            doc["expected"]["leaderboard"]["baseline_total_times"][0] *= 1 + 1e-9

        path = _tampered(recorded["leaderboard"], tmp_path, edit)
        with pytest.raises(GoldenMismatchError, match="baseline_total_times"):
            golden.check(path, tolerance=0.01)

    def test_record_all_includes_the_leaderboard(self):
        assert ("leaderboard", "tournament-smoke") in {
            (kind, name) for kind, name, _ in golden.default_records()
        }

    def test_committed_leaderboard_replays(self):
        # The repo's own recording must keep reproducing — this is the
        # golden-replay bar for the whole policy subsystem.
        outcome = golden.check(
            golden.golden_path(REPO_GOLDEN_DIR, "tournament-smoke")
        )
        assert outcome.ok

    def test_committed_artifact_is_versioned(self):
        doc = golden.load(golden.golden_path(REPO_GOLDEN_DIR, "tournament-smoke"))
        board = doc["expected"]["leaderboard"]
        assert board["format"] == LEADERBOARD_FORMAT
        assert board["version"] == LEADERBOARD_VERSION == 1
        assert doc["input"] == _default("leaderboard")[2]
        assert board["config"] == doc["input"]


# -- the content address every input_fingerprint rests on ----------------------

scenario_strategy = st.builds(
    lambda kind, works, prios, mapping, iterations, seed: ScenarioSpec(
        name="prop",
        kind=kind,
        works=tuple(works),
        iterations=iterations,
        mapping=mapping,
        priorities=tuple(enumerate(prios)),
        seed=seed,
    ),
    st.sampled_from(["barrier_loop", "metbench", "btmz"]),
    works_strategy,
    prio_strategy,
    st.one_of(
        st.sampled_from(["identity", "btmz", "siesta"]),
        st.permutations(range(4)).map(lambda cpus: dict(enumerate(cpus))),
    ),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)

tournament_strategy = st.builds(
    TournamentConfig,
    policies=st.lists(
        st.sampled_from(DEFAULT_POLICIES), min_size=1, max_size=4, unique=True
    ).map(tuple),
    corpus=st.sampled_from(sorted(CORPORA)),
    n_scenarios=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

content_settings = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestContentAddress:
    """``from_doc(to_doc(x)) == x`` and a fingerprint that survives the
    JSON round trip: every golden ``input_fingerprint`` depends on it."""

    @given(spec=scenario_strategy)
    @content_settings
    def test_scenario_spec_round_trips_with_a_stable_fingerprint(self, spec):
        doc = json.loads(json.dumps(spec.to_doc()))
        again = ScenarioSpec.from_doc(doc)
        assert again == spec
        assert again.to_doc() == doc
        assert again.fingerprint == spec.fingerprint == fingerprint_doc(doc)

    @given(config=tournament_strategy)
    @content_settings
    def test_tournament_config_round_trips_with_a_stable_fingerprint(
        self, config
    ):
        doc = json.loads(json.dumps(config.to_doc()))
        again = TournamentConfig.from_doc(doc)
        assert again == config
        assert again.to_doc() == doc
        assert again.fingerprint == config.fingerprint == fingerprint_doc(doc)
