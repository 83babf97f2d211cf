"""OS-noise daemon sources."""

import itertools

import pytest

from repro.errors import ConfigurationError
from repro.kernel.noise import NoiseConfig, NoiseSource, make_noise_sources
from repro.util.rng import RngStreams


def _window(src, t_end):
    """``src``'s events before ``t_end``."""
    return list(itertools.takewhile(lambda e: e.time < t_end, src.events()))


class TestNoiseConfig:
    def test_duty_cycle(self):
        cfg = NoiseConfig("daemon", cpu=0, mean_period=0.99, mean_burst=0.01)
        assert cfg.duty_cycle == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseConfig("", cpu=0, mean_period=1, mean_burst=1)
        with pytest.raises(ConfigurationError):
            NoiseConfig("x", cpu=-1, mean_period=1, mean_burst=1)
        with pytest.raises(ConfigurationError):
            NoiseConfig("x", cpu=0, mean_period=0, mean_burst=1)


class TestNoiseSource:
    def _source(self, period=0.1, burst=0.005, seed=0):
        cfg = NoiseConfig("collector", cpu=1, mean_period=period, mean_burst=burst)
        return NoiseSource(cfg, RngStreams(seed).get("n"))

    def test_events_on_configured_cpu(self):
        events = _window(self._source(), 10.0)
        assert events
        assert all(e.cpu == 1 for e in events)
        assert all(e.kind == "noise:collector" for e in events)

    def test_mean_burst_approximate(self):
        events = _window(self._source(period=0.01, burst=0.002, seed=3), 50.0)
        mean = sum(e.duration for e in events) / len(events)
        assert mean == pytest.approx(0.002, rel=0.2)

    def test_bursts_do_not_overlap(self):
        events = _window(self._source(period=0.01, burst=0.02, seed=1), 5.0)
        for prev, nxt in zip(events, events[1:]):
            assert nxt.time >= prev.time + prev.duration - 1e-12

    def test_bursts_truncated_at_10x(self):
        events = _window(self._source(period=0.001, burst=0.001, seed=2), 5.0)
        assert max(e.duration for e in events) <= 0.01 + 1e-12

    def test_deterministic(self):
        a = [(e.time, e.duration) for e in _window(self._source(seed=5), 3.0)]
        b = [(e.time, e.duration) for e in _window(self._source(seed=5), 3.0)]
        assert a == b


class TestFactory:
    def test_independent_streams_per_daemon(self):
        cfgs = [
            NoiseConfig("a", cpu=0, mean_period=0.1, mean_burst=0.01),
            NoiseConfig("b", cpu=1, mean_period=0.1, mean_burst=0.01),
        ]
        sources = make_noise_sources(cfgs, RngStreams(0))
        ta = [e.time for e in _window(sources[0], 2.0)]
        tb = [e.time for e in _window(sources[1], 2.0)]
        assert ta != tb
