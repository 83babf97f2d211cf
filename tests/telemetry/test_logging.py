"""Logging integration: per-layer loggers, idempotent configuration,
and the service actually logging worker failures with the job id."""

import io
import logging

import pytest

from repro.errors import ConfigurationError
from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.jobs import JobSpec, JobState, RetryPolicy
from repro.telemetry import ROOT_LOGGER_NAME, configure_logging, get_logger
from repro.telemetry.logconfig import _HANDLER_MARK
from tests.service.test_executor import spec_for

WAIT = 60.0


def _marked_handlers():
    root = logging.getLogger(ROOT_LOGGER_NAME)
    return [h for h in root.handlers if getattr(h, _HANDLER_MARK, False)]


def _unconfigure():
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in _marked_handlers():
        root.removeHandler(handler)


class TestGetLogger:
    def test_layer_names_are_prefixed(self):
        assert get_logger("service").name == "repro.service"
        assert get_logger("mpi").name == "repro.mpi"

    def test_root_and_qualified_names_pass_through(self):
        assert get_logger().name == "repro"
        assert get_logger("repro").name == "repro"
        assert get_logger("repro.core.search").name == "repro.core.search"


class TestConfigureLogging:
    def test_idempotent_single_handler(self):
        _unconfigure()
        try:
            stream = io.StringIO()
            root = configure_logging("INFO", stream=stream)
            configure_logging("DEBUG", stream=stream)
            handlers = _marked_handlers()
            assert len(handlers) == 1  # second call adjusted, not stacked
            assert handlers[0].level == logging.DEBUG
            assert root.level == logging.DEBUG
        finally:
            _unconfigure()

    def test_messages_reach_the_stream(self):
        _unconfigure()
        try:
            stream = io.StringIO()
            configure_logging("INFO", stream=stream)
            get_logger("service").info("hello from the service layer")
            assert "hello from the service layer" in stream.getvalue()
            assert "repro.service" in stream.getvalue()
        finally:
            _unconfigure()

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            configure_logging("NOISY")

    def test_numeric_level_accepted(self):
        _unconfigure()
        try:
            configure_logging(logging.WARNING, stream=io.StringIO())
            assert _marked_handlers()[0].level == logging.WARNING
        finally:
            _unconfigure()


class TestServiceLogging:
    def test_worker_failure_logged_with_job_id(self, caplog):
        def runner(specs):
            raise ValueError("synthetic worker explosion")

        config = ServiceConfig(workers=1, retry=RetryPolicy(max_retries=0))
        with caplog.at_level(logging.ERROR, logger="repro.service"):
            with ScenarioService(config, runner=runner) as service:
                job = service.submit(spec_for("log-fail"))
                job = service.wait(job.id, timeout=WAIT)
        assert job.state is JobState.FAILED
        records = [
            r for r in caplog.records if r.name == "repro.service"
            and job.id in r.getMessage()
        ]
        assert records, "worker failure must be logged with the job id"
        assert "synthetic worker explosion" in records[0].getMessage()
        assert records[0].exc_info is not None  # traceback attached
