"""Pinning scheduler."""

import pytest

from repro.errors import MappingError
from repro.kernel.scheduler import PinnedScheduler


class TestPinning:
    def test_pin_and_lookup(self):
        s = PinnedScheduler(4)
        s.pin(10, 2)
        assert s.cpu_of(10) == 2
        assert 10 in s

    def test_double_pin_pid_rejected(self):
        s = PinnedScheduler(4)
        s.pin(10, 0)
        with pytest.raises(MappingError, match="already pinned"):
            s.pin(10, 1)

    def test_busy_cpu_rejected(self):
        s = PinnedScheduler(4)
        s.pin(10, 0)
        with pytest.raises(MappingError, match="already runs"):
            s.pin(11, 0)

    def test_cpu_of_unknown(self):
        s = PinnedScheduler(4)
        with pytest.raises(MappingError):
            s.cpu_of(99)

    def test_out_of_range_cpu(self):
        s = PinnedScheduler(2)
        with pytest.raises(MappingError):
            s.pin(1, 2)
        with pytest.raises(MappingError):
            s.pin(2, -1)

    def test_needs_positive_cpus(self):
        with pytest.raises(MappingError):
            PinnedScheduler(0)
