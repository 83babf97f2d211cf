"""A deterministic simulated MPI runtime.

Rank programs are Python generators that ``yield`` operation records
(compute, collective, point-to-point post, wait, priority change) built
through the :class:`~repro.mpi.process.RankApi` handed to them — mirroring how an
MPI-CH rank alternates computation with MPI calls. The
:class:`~repro.mpi.runtime.MpiRuntime` advances all ranks through a
fluid-rate discrete-event simulation whose compute speeds come from the
SMT throughput models, so hardware-priority changes immediately reshape
rank progress — the paper's mechanism, end to end.

Key fidelity choice: blocked ranks *busy-wait* by default, exactly like
MPI-CH 1.0.4 — the spinning rank keeps consuming decode slots and shared
resources on its core. ``wait_mode="block"`` switches to an idle wait for
the ablation benchmark.
"""

from repro.mpi.datatypes import Datatype, ANY_SOURCE, ANY_TAG
from repro.mpi.status import Status
from repro.mpi.request import Request, RequestKind
from repro.mpi.p2p import MessageEngine, CommCosts
from repro.mpi.collectives import CollectiveManager
from repro.mpi.communicator import Communicator
from repro.mpi.process import (
    RankApi,
    RankProgram,
    ComputeOp,
    CollectiveOp,
    P2pOp,
    WaitOp,
    SetPriorityOp,
)
from repro.mpi.runtime import MpiRuntime, RuntimeConfig, RunResult

__all__ = [
    "Datatype",
    "ANY_SOURCE",
    "ANY_TAG",
    "Status",
    "Request",
    "RequestKind",
    "MessageEngine",
    "CommCosts",
    "CollectiveManager",
    "Communicator",
    "RankApi",
    "RankProgram",
    "ComputeOp",
    "CollectiveOp",
    "P2pOp",
    "WaitOp",
    "SetPriorityOp",
    "MpiRuntime",
    "RuntimeConfig",
    "RunResult",
]
