"""The paper's workloads, rebuilt as simulated MPI applications.

* :mod:`repro.workloads.metbench` — MetBench, the BSC micro-benchmark
  (master/worker, strict barrier synchronisation, one load profile for
  every worker).
* :mod:`repro.workloads.bt_mz` — the NAS BT Multi-Zone benchmark's
  structure: geometric zone-size skew, per-iteration neighbour exchange
  with ``isend/irecv/waitall``.
* :mod:`repro.workloads.siesta` — SIESTA's phase structure: imbalanced
  init, self-consistent-field iterations whose bottleneck migrates
  between ranks, imbalanced finalisation.
* :mod:`repro.workloads.generators` — synthetic imbalance patterns for
  examples, tests and Figure 1.
"""

from repro.workloads.base import WorkVector, works_for_targets
from repro.workloads.metbench import metbench_programs
from repro.workloads.bt_mz import BtMzConfig, ZoneGrid, bt_mz_programs
from repro.workloads.nas_mz import (
    sp_mz_programs,
    lu_mz_programs,
    sp_mz_zone_grid,
    lu_mz_zone_grid,
)
from repro.workloads.siesta import SiestaConfig, siesta_programs
from repro.workloads.master_worker import (
    static_master_worker_programs,
    dynamic_master_worker_programs,
)
from repro.workloads.generators import (
    one_heavy_works,
    linear_ramp_works,
    random_works,
    barrier_loop_programs,
)

__all__ = [
    "WorkVector",
    "works_for_targets",
    "metbench_programs",
    "BtMzConfig",
    "ZoneGrid",
    "bt_mz_programs",
    "sp_mz_programs",
    "lu_mz_programs",
    "sp_mz_zone_grid",
    "lu_mz_zone_grid",
    "SiestaConfig",
    "siesta_programs",
    "static_master_worker_programs",
    "dynamic_master_worker_programs",
    "one_heavy_works",
    "linear_ramp_works",
    "random_works",
    "barrier_loop_programs",
]
