"""Privilege-checked hardware priority controller."""

import numpy
import pytest

from repro.errors import ConfigurationError, InvalidPriorityError, PrivilegeError
from repro.kernel.hmt import Actor, HmtController, PriorityWrite
from repro.smt.chip import Power5Chip
from repro.smt.priorities import PRIORITY_TABLE, HardwarePriority, can_set_priority

#: Every level around the architectural range, plus values that only
#: look like levels: a bool, a float, a string, an enum member and a
#: numpy integer.
GATE_VALUES = list(range(-1, 9)) + [
    True, 5.0, "5", HardwarePriority.HIGH, numpy.int64(5),
]


@pytest.fixture()
def hmt():
    return HmtController(Power5Chip())


class TestPrivilegeEnforcement:
    def test_user_can_set_2_to_4(self, hmt):
        for prio in (2, 3, 4):
            hmt.set_priority(0, prio, Actor.USER)
            assert int(hmt.read_tsr(0)) == prio

    @pytest.mark.parametrize("prio", [0, 1, 5, 6, 7])
    def test_user_denied_outside_2_to_4(self, hmt, prio):
        with pytest.raises(PrivilegeError):
            hmt.set_priority(0, prio, Actor.USER)

    def test_os_can_set_1_to_6(self, hmt):
        for prio in (1, 2, 3, 4, 5, 6):
            hmt.set_priority(1, prio, Actor.OS)

    @pytest.mark.parametrize("prio", [0, 7])
    def test_os_denied_hypervisor_levels(self, hmt, prio):
        with pytest.raises(PrivilegeError):
            hmt.set_priority(1, prio, Actor.OS)

    def test_hypervisor_full_range(self, hmt):
        for prio in range(8):
            hmt.set_priority(2, prio, Actor.HYPERVISOR)

    def test_denied_write_leaves_priority_unchanged(self, hmt):
        before = int(hmt.read_tsr(0))
        with pytest.raises(PrivilegeError):
            hmt.set_priority(0, 6, Actor.USER)
        assert int(hmt.read_tsr(0)) == before

    def test_invalid_priority_value(self, hmt):
        with pytest.raises(InvalidPriorityError):
            hmt.set_priority(0, 9, Actor.HYPERVISOR)


class TestNopSemantics:
    def test_try_set_silently_noops_on_denial(self, hmt):
        assert not hmt.try_set_priority(0, 6, Actor.USER)
        assert int(hmt.read_tsr(0)) == 4

    def test_or_nop_by_register(self, hmt):
        assert hmt.or_nop(0, 1, Actor.USER)  # or 1,1,1 -> LOW
        assert int(hmt.read_tsr(0)) == 2

    def test_or_nop_privileged_register_noop_for_user(self, hmt):
        assert not hmt.or_nop(0, 3, Actor.USER)  # or 3,3,3 -> HIGH
        assert int(hmt.read_tsr(0)) == 4

    def test_or_nop_priority_convenience(self, hmt):
        assert hmt.or_nop_priority(0, 3)
        assert int(hmt.read_tsr(0)) == 3
        assert not hmt.or_nop_priority(0, 6)  # user path: denied silently


class TestAudit:
    def test_history_records_successful_writes(self, hmt):
        hmt.set_priority(0, 3, Actor.USER, time=1.5, via="mtspr")
        hmt.set_priority(2, 6, Actor.OS, time=2.0, via="procfs")
        assert len(hmt.history) == 2
        assert hmt.history[1].cpu == 2
        assert hmt.history[1].via == "procfs"
        assert hmt.history[1].time == 2.0

    def test_denied_writes_not_recorded(self, hmt):
        hmt.try_set_priority(0, 6, Actor.USER)
        assert hmt.history == []

    def test_last_write_filter(self, hmt):
        hmt.set_priority(0, 3, Actor.USER)
        hmt.set_priority(1, 2, Actor.USER)
        assert hmt.last_write().cpu == 1
        assert hmt.last_write(cpu=0).priority == 3
        assert hmt.last_write(cpu=3) is None

    def test_priorities_tuple(self, hmt):
        hmt.set_priority(3, 6, Actor.OS)
        assert tuple(int(p) for p in hmt.priorities()) == (4, 4, 4, 6)


class TestGateMatchesTableI:
    """The write gate accepts exactly what Table I's privilege column says."""

    @pytest.mark.parametrize("actor", list(Actor))
    @pytest.mark.parametrize("value", GATE_VALUES, ids=repr)
    def test_accepts_or_rejects_per_table(self, hmt, actor, value):
        # Table I's verdict, read off the table itself rather than the
        # gate's own validation, then held against ``can_set_priority``.
        is_level = not isinstance(value, bool) and isinstance(value, int)
        if not is_level or value not in PRIORITY_TABLE:
            expected = InvalidPriorityError
            with pytest.raises(InvalidPriorityError):
                can_set_priority(actor.privilege, value)
        else:
            expected = actor.privilege >= PRIORITY_TABLE[value].privilege
            assert can_set_priority(actor.privilege, value) == expected
        before = (hmt.priorities(), list(hmt.history))
        if expected is True:
            hmt.set_priority(1, value, actor, time=2.5)
            assert hmt.read_tsr(1) == value
            assert hmt.history[-1].priority == value
            assert hmt.history[-1].actor is actor
            return
        error = PrivilegeError if expected is False else InvalidPriorityError
        with pytest.raises(error):
            hmt.set_priority(1, value, actor)
        assert (hmt.priorities(), hmt.history) == before

    @pytest.mark.parametrize("actor,denied,allowed", [
        (Actor.USER, 5, "allowed: 2-4"), (Actor.OS, 7, "allowed: 1-6"),
    ])
    def test_refusal_names_the_allowed_range(self, hmt, actor, denied, allowed):
        with pytest.raises(PrivilegeError, match=allowed):
            hmt.set_priority(0, denied, actor)


class TestCpuBounds:
    @pytest.mark.parametrize("make", [
        Power5Chip, lambda: Power5Chip(n_nodes=2),
    ])
    def test_out_of_range_cpu_is_a_configuration_error(self, make):
        machine = make()
        for cpu in (-1, machine.n_cpus):
            with pytest.raises(ConfigurationError):
                machine.priority(cpu)
            with pytest.raises(ConfigurationError):
                machine.store_priority(cpu, 4)

    def test_refused_cpu_leaves_history_untouched(self, hmt):
        with pytest.raises(ConfigurationError):
            hmt.set_priority(4, 5, Actor.OS)
        assert hmt.history == []


class TestIntStorage:
    """Levels are stored as plain ints; the accessors still hand out
    :class:`HardwarePriority` members, and the audit record is frozen."""

    def test_priority_write_is_an_immutable_record(self, hmt):
        hmt.set_priority(0, 3, Actor.USER, time=1.5)
        write = hmt.history[-1]
        assert write == PriorityWrite(1.5, 0, 3, Actor.USER, "mtspr")
        assert (write.time, write.cpu, write.priority, write.actor, write.via) == (
            1.5, 0, 3, Actor.USER, "mtspr",
        )
        with pytest.raises(AttributeError):
            write.priority = 5

    def test_accessors_return_members(self, hmt):
        hmt.set_priority(1, 6, Actor.OS)
        assert hmt.read_tsr(1) is HardwarePriority.HIGH
        assert hmt.chip.priority(1) is HardwarePriority.HIGH
        assert hmt.priorities() == (4, 6, 4, 4)
        assert all(type(p) is HardwarePriority for p in hmt.priorities())
        assert hmt.chip.priorities[:2] == [HardwarePriority.MEDIUM, HardwarePriority.HIGH]

    def test_member_writes_are_stored_as_ints(self, hmt):
        hmt.set_priority(0, HardwarePriority.LOW, Actor.USER)
        hmt.set_priority(1, 3, Actor.USER)
        stored = hmt.chip.priorities[:2]
        assert stored == [2, 3]
        assert [type(x) for x in stored] == [int, int]
        assert [type(w.priority) for w in hmt.history] == [int, int]

    def test_cluster_machine_writes_through(self):
        machine = Power5Chip(n_nodes=2)
        hmt = HmtController(machine)
        hmt.set_priority(5, 6, Actor.OS)
        assert machine.priority(5) is HardwarePriority.HIGH
        # Global CPU 5 is node 1's first core, thread 1.
        core = machine.core_groups[1][0]
        assert HardwarePriority(machine.priorities[2 * core + 1]) is HardwarePriority.HIGH
