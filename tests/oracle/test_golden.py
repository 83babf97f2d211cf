"""Golden-trace record/check replay, including the repo's own goldens."""

import json
import os

import pytest

from repro.errors import GoldenMismatchError, OracleError
from repro.oracle import golden
from repro.scenarios import ScenarioSpec

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


class TestRecordCheck:
    def test_fresh_record_then_check_passes(self, tmp_path):
        path = str(tmp_path / "tiny.golden.json")
        doc = golden.record(SMALL, path)
        assert doc["format"] == golden.GOLDEN_FORMAT
        outcome = golden.check(path)
        assert outcome.ok and outcome.digest_equal
        assert outcome.replayed_time == outcome.recorded_time

    def test_tampered_metric_fails(self, tmp_path):
        path = str(tmp_path / "tiny.golden.json")
        golden.record(SMALL, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["total_time"] *= 1.5
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(GoldenMismatchError, match="total_time"):
            golden.check(path)

    def test_edited_scenario_detected_by_fingerprint(self, tmp_path):
        path = str(tmp_path / "tiny.golden.json")
        golden.record(SMALL, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["scenario"]["iterations"] = 5  # silent edit, stale fingerprint
        with open(path, "w") as fh:
            json.dump(doc, fh)
        outcome = golden.check(path, strict=False)
        assert any("fingerprint" in m for m in outcome.mismatches)

    def test_tolerance_forgives_digest_but_not_metric_drift(self, tmp_path):
        path = str(tmp_path / "tiny.golden.json")
        golden.record(SMALL, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["trace_digest"] = "0" * 64
        with open(path, "w") as fh:
            json.dump(doc, fh)
        outcome = golden.check(path, tolerance=0.01, strict=False)
        assert outcome.ok and not outcome.digest_equal
        with pytest.raises(GoldenMismatchError):
            golden.check(path, tolerance=0.0)

    def test_version_gate(self, tmp_path):
        path = str(tmp_path / "tiny.golden.json")
        golden.record(SMALL, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["version"] = golden.GOLDEN_VERSION + 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(OracleError, match="re-record"):
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
        names = {s.name for s in golden.default_scenarios()}
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

    def test_batch_replay_bit_exact(self):
        """All goldens through one run_batch call: the batch-path twin of
        the scalar replay, guarding the shared warm memo a batch reuses."""
        outcomes = golden.check_all_batch(REPO_GOLDEN_DIR)
        assert len(outcomes) == len(golden.golden_paths(REPO_GOLDEN_DIR))
        for outcome in outcomes:
            assert outcome.ok and outcome.digest_equal

    def test_batch_replay_empty_dir_raises(self, tmp_path):
        with pytest.raises(OracleError):
            golden.check_all_batch(str(tmp_path))


class TestJointSearchGolden:
    """The joint-search golden: the whole pruned sweep replays — winner,
    candidate count and trace digest pinned."""

    def test_fresh_record_then_check_passes(self, tmp_path):
        path = golden.record_joint_search(str(tmp_path))
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["format"] == golden.JOINT_SEARCH_FORMAT
        outcome = golden.check_joint_search(str(tmp_path))
        assert outcome.ok
        assert outcome.replayed_digest == outcome.recorded_digest

    def test_tampered_winner_fails(self, tmp_path):
        path = golden.joint_search_path(str(tmp_path))
        golden.record_joint_search(str(tmp_path))
        with open(path) as fh:
            doc = json.load(fh)
        doc["best_time"] *= 1.01
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(GoldenMismatchError, match="best time"):
            golden.check_joint_search(str(tmp_path))
        outcome = golden.check_joint_search(str(tmp_path), strict=False)
        assert not outcome.ok

    def test_tampered_mapping_fails(self, tmp_path):
        path = golden.joint_search_path(str(tmp_path))
        golden.record_joint_search(str(tmp_path))
        with open(path) as fh:
            doc = json.load(fh)
        doc["best_mapping"] = {"0": 1, "1": 0, "2": 2, "3": 3}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(GoldenMismatchError, match="best mapping"):
            golden.check_joint_search(str(tmp_path))

    def test_version_gate(self, tmp_path):
        path = golden.joint_search_path(str(tmp_path))
        golden.record_joint_search(str(tmp_path))
        with open(path) as fh:
            doc = json.load(fh)
        doc["version"] = golden.JOINT_SEARCH_VERSION + 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(OracleError):
            golden.check_joint_search(str(tmp_path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OracleError):
            golden.check_joint_search(str(tmp_path))

    def test_repo_joint_search_golden_replays(self):
        outcome = golden.check_joint_search(REPO_GOLDEN_DIR)
        assert outcome.ok
        assert outcome.replayed_digest == outcome.recorded_digest

    def test_joint_search_golden_is_not_a_trace_golden(self):
        # The .search.json suffix keeps it out of the single-trace
        # replay globs — check_all must not try to run it.
        assert golden.joint_search_path(REPO_GOLDEN_DIR) not in (
            golden.golden_paths(REPO_GOLDEN_DIR)
        )
