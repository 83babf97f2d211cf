"""repro — reproduction of Boneti et al., *Balancing HPC Applications
Through Smart Allocation of Resources in MT Processors* (IPDPS 2008).

The package simulates the paper's whole stack in Python:

* :mod:`repro.smt` — a POWER5-like dual-core 2-way-SMT chip whose decode
  slots are divided between hardware threads by *priorities* (the
  paper's Tables I-III), with cycle-level and closed-form throughput
  models.
* :mod:`repro.kernel` — standard vs. patched Linux behaviour around those
  priorities, including the ``/proc/<PID>/hmt_priority`` interface the
  paper adds.
* :mod:`repro.mpi` — a deterministic fluid-rate MPI runtime whose ranks
  busy-wait like MPI-CH, so priority changes reshape application balance.
* :mod:`repro.workloads` — MetBench, BT-MZ and SIESTA models.
* :mod:`repro.core` — the contribution: static priority balancing, plus
  the dynamic balancer the paper proposes as future work.
* :mod:`repro.experiments` — one runner per paper table/figure.

Quickstart::

    from repro import System, SystemConfig
    from repro.workloads import barrier_loop_programs

    system = System(SystemConfig(kernel="patched"))   # the paper's machine
    works = [1e9, 4e9, 1e9, 4e9]                      # two 4x-heavy ranks

    baseline = system.run(barrier_loop_programs(works, iterations=5))
    balanced = system.run(
        barrier_loop_programs(works, iterations=5),
        priorities={0: 4, 1: 6, 2: 4, 3: 6},   # echo 6 > /proc/<pid>/hmt_priority
    )
    print(baseline.total_time, "->", balanced.total_time)
    print(baseline.imbalance_percent, "->", balanced.imbalance_percent)
"""

from repro.version import __version__
from repro.errors import (
    ReproError,
    ConfigurationError,
    PrivilegeError,
    InvalidPriorityError,
    MpiError,
    DeadlockError,
    MappingError,
    TraceError,
    WorkloadError,
    SimulationError,
)
from repro.machine import ProcessMapping, System, SystemConfig, paper_mapping, paired_mapping
from repro.mpi import RunResult, RuntimeConfig, RankApi
from repro.smt import (
    HardwarePriority,
    PrivilegeLevel,
    decode_share,
    decode_allocation,
    slice_length,
    LoadProfile,
    AnalyticThroughputModel,
    ThroughputTable,
)
from repro.trace import Trace, TraceStats, compute_stats, render_gantt
from repro.cluster import (
    NetworkModel,
    NETWORK_KINDS,
    TopologySpec,
    UniformNetwork,
    TwoLevelTree,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "PrivilegeError",
    "InvalidPriorityError",
    "MpiError",
    "DeadlockError",
    "MappingError",
    "TraceError",
    "WorkloadError",
    "SimulationError",
    "ProcessMapping",
    "System",
    "SystemConfig",
    "paper_mapping",
    "paired_mapping",
    "RunResult",
    "RuntimeConfig",
    "RankApi",
    "HardwarePriority",
    "PrivilegeLevel",
    "decode_share",
    "decode_allocation",
    "slice_length",
    "LoadProfile",
    "AnalyticThroughputModel",
    "ThroughputTable",
    "Trace",
    "TraceStats",
    "compute_stats",
    "render_gantt",
    "NetworkModel",
    "NETWORK_KINDS",
    "TopologySpec",
    "UniformNetwork",
    "TwoLevelTree",
]
