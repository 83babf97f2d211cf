"""What a run's launch writes: ``KernelModel.launch`` pins each rank,
resets it to MEDIUM, then installs the static priorities in pid order,
every write through the HMT gate."""

import pytest

from repro.kernel.hmt import HmtController
from repro.kernel.kernel import make_kernel
from repro.kernel.scheduler import PinnedScheduler
from repro.smt.chip import ChipConfig, Power5Chip
from repro.smt.priorities import HardwarePriority

PINS = {0: 0, 1: 3, 2: 6}


def _launch(kind, priorities):
    chip = Power5Chip(ChipConfig(n_cores=4))
    hmt = HmtController(chip)
    scheduler = PinnedScheduler(chip.n_cpus)
    make_kernel(kind, hmt, scheduler).launch(PINS, priorities, 0.0)
    return hmt, scheduler


@pytest.mark.parametrize("kind", ["standard", "patched"])
def test_no_priorities_leaves_medium_everywhere(kind):
    hmt, scheduler = _launch(kind, None)
    assert [(w.cpu, w.priority, w.via) for w in hmt.history] == [
        (0, 4, "kernel"), (3, 4, "kernel"), (6, 4, "kernel"),
    ]
    assert set(hmt.priorities()) == {HardwarePriority.MEDIUM}
    assert {pid: scheduler.cpu_of(pid) for pid in PINS} == PINS


def test_patched_writes_through_procfs_and_standard_ignores_5_and_6():
    wanted = {2: 5, 0: 6, 1: 3}
    patched, _ = _launch("patched", wanted)
    standard, _ = _launch("standard", wanted)
    assert [(w.cpu, w.priority, w.via) for w in patched.history[3:]] == [
        (0, 6, "procfs"), (3, 3, "procfs"), (6, 5, "procfs"),
    ]
    assert [(w.cpu, w.priority, w.via) for w in standard.history[3:]] == [
        (3, 3, "or-nop"),
    ]
