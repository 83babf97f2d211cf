"""Rank programs: the API a simulated MPI rank codes against.

A rank program is a Python generator function taking one argument, the
:class:`RankApi`, and yielding operation descriptors::

    def worker(mpi: RankApi):
        yield mpi.compute(2.0e9, profile="fpu")       # instructions
        req = yield mpi.irecv(source=0, tag=7)
        yield mpi.compute(1.0e9, profile="fpu")
        status = yield mpi.wait(req)
        yield mpi.barrier()

``yield`` returns the operation's result (a :class:`Request` for isend /
irecv, a :class:`Status` for recv/wait, ``None`` otherwise), exactly as
the blocking/nonblocking split works in real MPI. The runtime advances
the generator when the operation completes in simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence, Tuple, Union

from repro.errors import MpiError, WorkloadError
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.trace.events import RankState

__all__ = [
    "ComputeOp",
    "BarrierOp",
    "SendOp",
    "RecvOp",
    "SendrecvOp",
    "IsendOp",
    "IrecvOp",
    "WaitOp",
    "WaitallOp",
    "SetPriorityOp",
    "BcastOp",
    "AllreduceOp",
    "ReduceOp",
    "GatherOp",
    "ScatterOp",
    "AllgatherOp",
    "AlltoallOp",
    "Op",
    "RankApi",
    "RankProgram",
]


# -- operation descriptors -------------------------------------------------------


@dataclass(frozen=True)
class ComputeOp:
    """Execute ``instructions`` of work under load ``profile``."""

    instructions: float
    profile: str
    #: Trace state recorded while computing (COMPUTE, INIT or FINAL).
    state: RankState = RankState.COMPUTE

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise WorkloadError(f"negative compute amount: {self.instructions}")
        if self.state not in (RankState.COMPUTE, RankState.INIT, RankState.FINAL):
            raise WorkloadError(f"compute state must be a useful state, got {self.state}")


@dataclass(frozen=True)
class BarrierOp:
    comm: Optional[Communicator] = None  # None = MPI_COMM_WORLD


@dataclass(frozen=True)
class _CollectiveOp:
    comm: Optional[Communicator]
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise MpiError(f"negative collective payload: {self.nbytes}")


@dataclass(frozen=True)
class BcastOp(_CollectiveOp):
    root: int = 0


@dataclass(frozen=True)
class ReduceOp(_CollectiveOp):
    root: int = 0


@dataclass(frozen=True)
class AllreduceOp(_CollectiveOp):
    pass


@dataclass(frozen=True)
class GatherOp(_CollectiveOp):
    root: int = 0


@dataclass(frozen=True)
class ScatterOp(_CollectiveOp):
    root: int = 0


@dataclass(frozen=True)
class AllgatherOp(_CollectiveOp):
    pass


@dataclass(frozen=True)
class AlltoallOp(_CollectiveOp):
    pass


@dataclass(frozen=True)
class SendrecvOp:
    """Combined blocking send+receive (``MPI_Sendrecv``): post both, wait
    for both; deadlock-free pairwise exchange. Resumes with the receive's
    :class:`Status`."""

    dest: int
    send_tag: int
    nbytes: int
    source: int
    recv_tag: int


@dataclass(frozen=True)
class SendOp:
    dest: int
    tag: int
    nbytes: int


@dataclass(frozen=True)
class RecvOp:
    source: int
    tag: int


@dataclass(frozen=True)
class IsendOp:
    dest: int
    tag: int
    nbytes: int


@dataclass(frozen=True)
class IrecvOp:
    source: int
    tag: int


@dataclass(frozen=True)
class WaitOp:
    request: Request


@dataclass(frozen=True)
class WaitallOp:
    requests: Tuple[Request, ...]


@dataclass(frozen=True)
class SetPriorityOp:
    """Change this rank's hardware thread priority.

    ``via="or-nop"`` models in-program priority nops (user privilege:
    silently ignored outside 2-4, like the hardware). ``via="procfs"``
    models another agent writing ``/proc/<pid>/hmt_priority`` (requires
    the patched kernel; OS privilege, 1-6).
    """

    priority: int
    via: str = "or-nop"

    def __post_init__(self) -> None:
        if self.via not in ("or-nop", "procfs"):
            raise MpiError(f"SetPriorityOp.via must be 'or-nop' or 'procfs', got {self.via!r}")


Op = Union[
    ComputeOp,
    BarrierOp,
    BcastOp,
    ReduceOp,
    AllreduceOp,
    GatherOp,
    ScatterOp,
    AllgatherOp,
    AlltoallOp,
    SendOp,
    RecvOp,
    SendrecvOp,
    IsendOp,
    IrecvOp,
    WaitOp,
    WaitallOp,
    SetPriorityOp,
]

#: The generator type a rank program body produces.
RankProgram = Callable[["RankApi"], Generator[Op, object, None]]


# -- the per-rank API ---------------------------------------------------------------


class RankApi:
    """Operation factory handed to each rank program.

    Also carries the rank's identity (``rank``, ``size``) the way
    ``MPI_Comm_rank``/``MPI_Comm_size`` would provide it. It holds
    nothing else (no per-instance dict), so one per rank can serve every
    run of a mapping.
    """

    __slots__ = ("rank", "size")

    def __init__(self, rank: int, size: int) -> None:
        if not 0 <= rank < size:
            raise MpiError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size

    # compute ----------------------------------------------------------------

    def compute(
        self,
        instructions: float,
        profile: str = "cfd",
        state: RankState = RankState.COMPUTE,
    ) -> ComputeOp:
        """``instructions`` of work under the named load profile."""
        return ComputeOp(instructions, profile, state)

    def init_phase(self, instructions: float, profile: str = "cfd") -> ComputeOp:
        """Initialisation work (traced as INIT)."""
        return ComputeOp(instructions, profile, RankState.INIT)

    def final_phase(self, instructions: float, profile: str = "cfd") -> ComputeOp:
        """Finalisation work (traced as FINAL)."""
        return ComputeOp(instructions, profile, RankState.FINAL)

    # collectives -------------------------------------------------------------

    def barrier(self, comm: Optional[Communicator] = None) -> BarrierOp:
        return BarrierOp(comm)

    def bcast(
        self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None
    ) -> BcastOp:
        return BcastOp(comm, nbytes, root)

    def reduce(
        self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None
    ) -> ReduceOp:
        return ReduceOp(comm, nbytes, root)

    def allreduce(self, nbytes: int, comm: Optional[Communicator] = None) -> AllreduceOp:
        return AllreduceOp(comm, nbytes)

    def gather(
        self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None
    ) -> GatherOp:
        return GatherOp(comm, nbytes, root)

    def scatter(
        self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None
    ) -> ScatterOp:
        return ScatterOp(comm, nbytes, root)

    def allgather(self, nbytes: int, comm: Optional[Communicator] = None) -> AllgatherOp:
        return AllgatherOp(comm, nbytes)

    def alltoall(self, nbytes: int, comm: Optional[Communicator] = None) -> AlltoallOp:
        return AlltoallOp(comm, nbytes)

    # point-to-point ---------------------------------------------------------------

    def send(self, dest: int, tag: int, nbytes: int) -> SendOp:
        return SendOp(dest, tag, nbytes)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvOp:
        return RecvOp(source, tag)

    def sendrecv(
        self,
        dest: int,
        send_tag: int,
        nbytes: int,
        source: int = ANY_SOURCE,
        recv_tag: int = ANY_TAG,
    ) -> SendrecvOp:
        return SendrecvOp(dest, send_tag, nbytes, source, recv_tag)

    def isend(self, dest: int, tag: int, nbytes: int) -> IsendOp:
        return IsendOp(dest, tag, nbytes)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> IrecvOp:
        return IrecvOp(source, tag)

    def wait(self, request: Request) -> WaitOp:
        return WaitOp(request)

    def waitall(self, requests: Sequence[Request]) -> WaitallOp:
        return WaitallOp(tuple(requests))

    # priority control -----------------------------------------------------------

    def set_priority(self, priority: int, via: str = "or-nop") -> SetPriorityOp:
        return SetPriorityOp(priority, via)
