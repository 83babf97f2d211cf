"""The /proc/<pid>/hmt_priority interface of the kernel patch."""

import numpy
import pytest

from repro.errors import InvalidPriorityError, PrivilegeError, ReproError
from repro.kernel.hmt import HmtController
from repro.kernel.procfs import ProcFs
from repro.kernel.scheduler import PinnedScheduler
from repro.smt.chip import Power5Chip
from repro.smt.priorities import HardwarePriority


@pytest.fixture()
def machine():
    chip = Power5Chip()
    hmt = HmtController(chip)
    sched = PinnedScheduler(chip.config.n_cpus)
    sched.pin(100, 0)
    sched.pin(101, 3)
    return chip, hmt, ProcFs(hmt, sched)


class TestWrite:
    def test_echo_sets_priority(self, machine):
        chip, hmt, fs = machine
        fs.write("/proc/100/hmt_priority", "6")
        assert int(chip.priority(0)) == 6

    def test_paper_usage_whitespace_tolerant(self, machine):
        chip, _, fs = machine
        fs.write("/proc/101/hmt_priority", " 5\n")
        assert int(chip.priority(3)) == 5

    def test_os_range_1_to_6(self, machine):
        _, _, fs = machine
        for prio in (1, 2, 3, 4, 5, 6):
            fs.write("/proc/100/hmt_priority", str(prio))

    @pytest.mark.parametrize("prio", ["0", "7"])
    def test_hypervisor_levels_refused(self, machine, prio):
        _, _, fs = machine
        with pytest.raises(PrivilegeError):
            fs.write("/proc/100/hmt_priority", prio)

    def test_non_integer_rejected(self, machine):
        _, _, fs = machine
        with pytest.raises(InvalidPriorityError):
            fs.write("/proc/100/hmt_priority", "high")

    def test_unknown_pid_is_enoent(self, machine):
        _, _, fs = machine
        with pytest.raises(FileNotFoundError):
            fs.write("/proc/999/hmt_priority", "4")

    def test_malformed_path_is_enoent(self, machine):
        _, _, fs = machine
        with pytest.raises(FileNotFoundError):
            fs.write("/proc/100/priority", "4")

    def test_write_goes_through_audited_controller(self, machine):
        _, hmt, fs = machine
        fs.write("/proc/100/hmt_priority", "5", time=3.5)
        assert hmt.last_write().via == "procfs"
        assert hmt.last_write().time == 3.5


class TestRead:
    def test_cat_returns_current_priority(self, machine):
        _, _, fs = machine
        fs.write("/proc/100/hmt_priority", "3")
        assert fs.read("/proc/100/hmt_priority") == "3\n"

    def test_read_unknown_pid(self, machine):
        _, _, fs = machine
        with pytest.raises(FileNotFoundError):
            fs.read("/proc/1/hmt_priority")


class TestHelpers:
    def test_path_for(self):
        assert ProcFs.path_for(42) == "/proc/42/hmt_priority"

    def test_set_priority_of_pid(self, machine):
        chip, _, fs = machine
        fs.set_priority_of_pid(101, 6)
        assert int(chip.priority(3)) == 6


def _outcome(write):
    """(error type or None, chip priorities, audit history) after ``write``."""
    chip = Power5Chip()
    hmt = HmtController(chip)
    sched = PinnedScheduler(chip.config.n_cpus)
    sched.pin(100, 0)
    sched.pin(101, 3)
    sched.pin(-5, 1)  # pinnable, but no path names it
    try:
        write(ProcFs(hmt, sched))
        error = None
    except (ReproError, OSError) as exc:
        error = type(exc)
    return error, hmt.priorities(), hmt.history


class TestSetPriorityOfPid:
    """``set_priority_of_pid`` behaves exactly like ``echo`` to the file."""

    @pytest.mark.parametrize(
        "pid", [100, 101, 999, -5, "101", numpy.int64(101), True], ids=repr
    )
    @pytest.mark.parametrize("value", list(range(-1, 9)) + [
        True, 5.0, "5", " 6\n", "+5", HardwarePriority.HIGH, numpy.int64(5),
        "high", None,
    ], ids=repr)
    def test_matches_the_text_path(self, pid, value):
        direct = _outcome(lambda fs: fs.set_priority_of_pid(pid, value, time=1.0))
        echoed = _outcome(
            lambda fs: fs.write(fs.path_for(pid), str(value), time=1.0)
        )
        assert direct == echoed

    def test_error_types(self, machine):
        _, hmt, fs = machine
        with pytest.raises(FileNotFoundError):
            fs.set_priority_of_pid(999, 4)
        with pytest.raises(InvalidPriorityError):
            fs.set_priority_of_pid(100, "high")
        for level in (0, 7):
            with pytest.raises(PrivilegeError):
                fs.set_priority_of_pid(100, level)
        assert hmt.history == []
