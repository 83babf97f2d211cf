"""Priority assignment data model."""

import pytest

from repro.core.balancer import PriorityAssignment
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping, paper_mapping


class TestPriorityAssignment:
    def test_build_and_lookup(self):
        a = PriorityAssignment.build(
            ProcessMapping.identity(4), {0: 4, 1: 6, 2: 4, 3: 6}, label="C"
        )
        assert a.priority_of(1) == 6
        assert a.priority_dict == {0: 4, 1: 6, 2: 4, 3: 6}

    def test_core_gaps(self):
        a = PriorityAssignment.build(
            ProcessMapping.identity(4), {0: 4, 1: 6, 2: 5, 3: 6}
        )
        assert a.core_gaps() == {0: 2, 1: 1}
        assert a.max_gap == 2

    def test_gap_zero_for_lone_rank(self):
        a = PriorityAssignment.build(
            ProcessMapping.from_dict({0: 0, 1: 2}), {0: 4, 1: 6}
        )
        assert a.core_gaps() == {0: 0, 1: 0}

    def test_must_cover_all_ranks(self):
        with pytest.raises(ConfigurationError):
            PriorityAssignment.build(ProcessMapping.identity(4), {0: 4, 1: 4})

    def test_hypervisor_levels_rejected(self):
        """A balancer operates at OS privilege: 0 and 7 are out."""
        with pytest.raises(ConfigurationError, match="hypervisor"):
            PriorityAssignment.build(ProcessMapping.identity(2), {0: 7, 1: 4})
        with pytest.raises(ConfigurationError):
            PriorityAssignment.build(ProcessMapping.identity(2), {0: 0, 1: 4})

    def test_describe(self):
        a = PriorityAssignment.build(
            paper_mapping("btmz"), {0: 4, 1: 4, 2: 5, 3: 6}, label="D"
        )
        text = a.describe()
        assert "[D]" in text
        assert "P4@cpu1:prio6" in text
