#!/usr/bin/env python
"""Extrinsic imbalance: OS noise, and fighting it with priorities.

Section II-B of the paper: even a well-planned application becomes
imbalanced when the OS steals cycles from some CPUs (noise daemons, the
CPU0 'interrupt annoyance problem'). This example injects a statistics
daemon on CPU0 — delaying only the rank pinned there — and then boosts
that rank's hardware priority to claw the lost throughput back from its
core sibling (which has slack): balancing against a cause the
*programmer cannot touch*.

The compensation works because the hardware gap's cost falls on the
sibling, which waits anyway; the paper's case-D lesson still applies —
a daemon stealing more than the sibling's slack cannot be priority-fixed.

Run:  python examples/os_noise_extrinsic.py
"""

from repro import ProcessMapping, System, SystemConfig
from repro.kernel import NoiseConfig
from repro.util.tables import TextTable
from repro.workloads import barrier_loop_programs

# Heavy ranks on cpu0/cpu2, light siblings (with slack) on cpu1/cpu3.
works = [2e9, 0.9e9, 2e9, 0.9e9]
mapping = ProcessMapping.identity(4)
ITER = 6


def programs():
    return barrier_loop_programs(works, iterations=ITER)


table = TextTable(["configuration", "exec time", "P1 noise %", "vs quiet"],
                  title="Extrinsic imbalance from OS noise on CPU0")

quiet = System(SystemConfig()).run(programs(), mapping)
table.add_row(["quiet machine", f"{quiet.total_time:.2f}s", "0.0", "+0.0%"])

# A statistics collector waking on CPU0 ~every 100 ms for ~7 ms.
daemon = NoiseConfig("collector", cpu=0, mean_period=0.10, mean_burst=0.007)
noisy_system = System(SystemConfig(noise=(daemon,)))

noisy = noisy_system.run(programs(), mapping)
table.add_row([
    "with daemon on CPU0",
    f"{noisy.total_time:.2f}s",
    f"{noisy.stats.rank_stats(0).noise_fraction * 100:.1f}",
    f"{(noisy.total_time - quiet.total_time) / quiet.total_time * 100:+.1f}%",
])

# Compensate: give the afflicted rank more of its core's decode slots.
# Every run draws the daemon's wakeups afresh from the seed, so this run
# meets the same noise as the one above.
fixed = noisy_system.run(programs(), mapping, priorities={0: 5, 1: 4, 2: 4, 3: 4})
table.add_row([
    "daemon + P1 boosted to 5",
    f"{fixed.total_time:.2f}s",
    f"{fixed.stats.rank_stats(0).noise_fraction * 100:.1f}",
    f"{(fixed.total_time - quiet.total_time) / quiet.total_time * 100:+.1f}%",
])

print(table.render())
recovered = (noisy.total_time - fixed.total_time) / (
    noisy.total_time - quiet.total_time
) * 100
print(f"\nthe boost recovered {recovered:.0f}% of the noise-induced slowdown.")
