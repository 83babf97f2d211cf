"""The job request/outcome language: validation, fingerprints, docs."""

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.scenarios import ScenarioSpec
from repro.service.jobs import Job, JobResult, JobSpec, JobState, RetryPolicy


def scenario(**overrides) -> ScenarioSpec:
    base = dict(
        name="t", kind="barrier_loop", works=(1.0e9, 2.0e9), iterations=2
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestJobSpecValidation:
    def test_needs_exactly_one_kind(self):
        with pytest.raises(ConfigurationError):
            JobSpec()
        with pytest.raises(ConfigurationError):
            JobSpec(scenario=scenario(), suite="metbench", case="A")

    def test_suite_kind_needs_case(self):
        with pytest.raises(ConfigurationError):
            JobSpec(suite="metbench")

    def test_unknown_suite_model_lane(self):
        with pytest.raises(ConfigurationError):
            JobSpec(suite="lu", case="A")
        with pytest.raises(ConfigurationError):
            JobSpec(scenario=scenario(), model="quantum")
        with pytest.raises(ConfigurationError):
            JobSpec(scenario=scenario(), lane="express")

    def test_iterations_only_for_suite_kind(self):
        with pytest.raises(ConfigurationError):
            JobSpec(scenario=scenario(), iterations=3)
        assert JobSpec(suite="metbench", case="A", iterations=3).iterations == 3

    def test_bad_limits(self):
        with pytest.raises(ConfigurationError):
            JobSpec(scenario=scenario(), timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            JobSpec(scenario=scenario(), deadline_s=-1.0)
        with pytest.raises(ConfigurationError):
            JobSpec(scenario=scenario(), max_retries=-1)


class TestFingerprint:
    def test_scheduling_options_do_not_change_it(self):
        base = JobSpec(scenario=scenario())
        tweaked = JobSpec(
            scenario=scenario(),
            lane="interactive",
            timeout_s=5.0,
            deadline_s=60.0,
            max_retries=7,
        )
        assert base.fingerprint == tweaked.fingerprint

    def test_physics_options_change_it(self):
        base = JobSpec(scenario=scenario())
        assert base.fingerprint != JobSpec(
            scenario=scenario(), model="cycle"
        ).fingerprint
        assert base.fingerprint != JobSpec(
            scenario=scenario(), check_invariants=True
        ).fingerprint
        assert base.fingerprint != JobSpec(
            scenario=scenario(works=(1.0e9, 2.1e9))
        ).fingerprint

    def test_embeds_oracle_scenario_fingerprint(self):
        scn = scenario()
        assert (
            JobSpec(scenario=scn).physics_doc()["scenario_fingerprint"]
            == scn.fingerprint
        )

    def test_case_kind_fingerprint(self):
        a = JobSpec(suite="metbench", case="A")
        assert a.fingerprint == JobSpec(suite="metbench", case="A").fingerprint
        assert a.fingerprint != JobSpec(suite="metbench", case="C").fingerprint
        assert (
            a.fingerprint
            != JobSpec(suite="metbench", case="A", iterations=2).fingerprint
        )


class TestSpecDocs:
    def test_scenario_round_trip(self):
        spec = JobSpec(
            scenario=scenario(), lane="interactive", timeout_s=9.0
        )
        again = JobSpec.from_doc(spec.to_doc())
        assert again == spec
        assert again.fingerprint == spec.fingerprint

    def test_case_round_trip_uppercases(self):
        spec = JobSpec.from_doc({"suite": "btmz", "case": "d"})
        assert spec.case == "D"
        assert JobSpec.from_doc(spec.to_doc()) == spec

    def test_rejects_garbage(self):
        with pytest.raises(ServiceError):
            JobSpec.from_doc("not a dict")
        with pytest.raises(ServiceError):
            JobSpec.from_doc({"suite": "metbench", "case": "A", "bogus": 1})
        with pytest.raises(ServiceError):
            JobSpec.from_doc({"suite": "metbench", "case": "A",
                              "timeout_s": "soon"})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_check_invariants_must_be_a_boolean(self, value):
        # bool("false") is True: coercing would run the oracle under a
        # different content address than the client asked for.
        with pytest.raises(ServiceError, match="check_invariants"):
            JobSpec.from_doc({"suite": "metbench", "case": "A",
                              "check_invariants": value})

    def test_check_invariants_booleans_accepted(self):
        for value in (False, True):
            spec = JobSpec.from_doc({"suite": "metbench", "case": "A",
                                     "check_invariants": value})
            assert spec.check_invariants is value


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_s=0.1, multiplier=2.0, max_backoff_s=0.3)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=0.0)


class TestJobLifecycle:
    def test_states_terminal(self):
        assert JobState.DONE.terminal and JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal
        assert not JobState.QUEUED.terminal and not JobState.RUNNING.terminal

    def test_finish_requires_terminal_state(self):
        job = Job(spec=JobSpec(scenario=scenario()))
        with pytest.raises(ServiceError):
            job.finish(JobState.RUNNING)

    def test_finish_sets_event_and_latency(self):
        job = Job(spec=JobSpec(scenario=scenario()))
        assert job.latency_s is None
        job.finish(JobState.FAILED, error="boom")
        assert job.done.is_set()
        assert job.latency_s >= 0.0
        doc = job.to_doc()
        assert doc["state"] == "failed"
        assert doc["error"] == "boom"
        assert doc["fingerprint"] == job.spec.fingerprint


class TestJobResultDoc:
    def test_round_trip(self):
        result = JobResult(
            fingerprint="f" * 64,
            digest="d" * 64,
            label="t",
            model="analytic",
            total_time=1.5,
            imbalance_percent=10.0,
            events_processed=42,
            final_priorities=(4, 6),
            ranks=({"rank": 0, "compute": 0.5},),
            compute_seconds=0.01,
        )
        assert JobResult.from_doc(result.to_doc()) == result

    def test_malformed(self):
        with pytest.raises(ServiceError):
            JobResult.from_doc({"digest": "x"})
