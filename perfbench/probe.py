"""Host-speed control: a fixed piece of pure-Python work timed between
the program's own units of work.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent within and between runs (other tenants, shared
caches). The program is an interpreter-bound Python simulator, so a
fixed interpreter-bound probe slows down and speeds up with it. Every
run times the probe many times, interleaved with the measured work and
never concurrently with it, and scales each of its timings by
``REFERENCE_S / median(the probe times around it)``: the times are
reported as they would read on a host where the probe takes
``REFERENCE_S``.

The probe does not touch the program, so a change to the program moves
the scaled times exactly as it moves the raw ones. The probe and
``REFERENCE_S`` must never change: they define the unit every earlier
result was reported in.
"""

from __future__ import annotations

import random
import time
from typing import List

from perfbench.stats import median

#: Probe time on the reference host (a 2-vCPU Xeon container, CPython 3.11).
REFERENCE_S = 0.0175

#: Probes whose median sets the scale of the work next to them: one
#: probe is noisy, a whole run's median misses drift within the run.
WINDOW = 9


def probe() -> float:
    """Run the probe's fixed work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    table = {}
    acc = 0.0
    for i in range(6000):
        key = rng.randrange(500)
        table[key] = table.get(key, 0.0) + rng.random() * 1.5
        if i % 50 == 0:
            acc += sum(sorted(table.values())[-3:])
    pairs = [(rng.random(), i) for i in range(5000)]
    pairs.sort()
    return time.perf_counter() - t0


def scale(probe_times: List[float]) -> float:
    """The factor that brings times measured among ``probe_times`` to the
    reference host speed."""
    return REFERENCE_S / median(probe_times)


def local_scales(probe_times: List[float]) -> List[float]:
    """One factor per probe, from the ``WINDOW`` probes centred on it
    (shifted inwards at the ends of the run): the scale of the work that
    ran right after that probe."""
    n = len(probe_times)
    width = min(WINDOW, n)
    scales = []
    for i in range(n):
        lo = min(max(0, i - width // 2), n - width)
        scales.append(scale(probe_times[lo:lo + width]))
    return scales
