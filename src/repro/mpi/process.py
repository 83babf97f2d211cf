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

from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence, Tuple

from repro.errors import MpiError, WorkloadError
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.trace.events import RankState

__all__ = [
    "ComputeOp",
    "CollectiveOp",
    "P2pOp",
    "WaitOp",
    "SetPriorityOp",
    "RankApi",
    "RankProgram",
]


# -- operation records -----------------------------------------------------------
#
# Five records, one per family, matching the three kinds of rank time a
# trace shows: compute (COMPUTE/INIT/FINAL), communication (COMM, a
# blocking point-to-point post) and synchronisation (SYNC, a collective
# or a wait). The runtime dispatches on their exact type.


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
class CollectiveOp:
    """Enter the next collective ``kind`` (``"barrier"``, ``"bcast"``,
    ...) on ``comm`` (``None``: ``MPI_COMM_WORLD``) with an ``nbytes``
    payload. The rank waits in SYNC until every member has arrived."""

    kind: str
    nbytes: int = 0
    comm: Optional[Communicator] = None
    #: The rooted collectives' root, a rank of ``comm`` (checked by
    #: :class:`RankApi`; the cost model does not depend on it).
    root: int = 0

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise MpiError(f"negative collective payload: {self.nbytes}")


@dataclass(frozen=True)
class P2pOp:
    """Post a send ``(dest, tag, nbytes)``, a receive ``(source, tag)``,
    or both, the send first.

    A nonblocking post (one side only) resumes the rank with its
    :class:`Request`. A blocking post waits in COMM for both sides to
    complete and resumes with the receive's :class:`Status` (``None``
    for a send alone); with both sides it is ``MPI_Sendrecv``, a
    deadlock-free pairwise exchange.
    """

    send: Optional[Tuple[int, int, int]]
    recv: Optional[Tuple[int, int]]
    blocking: bool

    def __post_init__(self) -> None:
        sides = (self.send is not None) + (self.recv is not None)
        if sides == 0 or (sides == 2 and not self.blocking):
            raise MpiError(
                "a post needs a send or a receive, and a nonblocking one exactly one"
            )


@dataclass(frozen=True)
class WaitOp:
    """Wait in SYNC until every request in ``requests`` completes; resume
    with ``single``'s status (``MPI_Wait``) or ``None`` when ``single``
    is ``None`` (``MPI_Waitall``)."""

    requests: Tuple[Request, ...]
    single: Optional[Request]


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


#: The generator type a rank program body produces.
RankProgram = Callable[["RankApi"], Generator[object, object, None]]


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

    def barrier(self, comm: Optional[Communicator] = None) -> CollectiveOp:
        return CollectiveOp("barrier", 0, comm)

    def _rooted(
        self, kind: str, nbytes: int, root: int, comm: Optional[Communicator]
    ) -> CollectiveOp:
        size = self.size if comm is None else comm.size
        if not 0 <= root < size:
            raise MpiError(f"{kind} root {root} out of range 0..{size - 1}")
        return CollectiveOp(kind, nbytes, comm, root)

    def bcast(
        self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None
    ) -> CollectiveOp:
        return self._rooted("bcast", nbytes, root, comm)

    def reduce(
        self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None
    ) -> CollectiveOp:
        return self._rooted("reduce", nbytes, root, comm)

    def allreduce(self, nbytes: int, comm: Optional[Communicator] = None) -> CollectiveOp:
        return CollectiveOp("allreduce", nbytes, comm)

    def gather(
        self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None
    ) -> CollectiveOp:
        return self._rooted("gather", nbytes, root, comm)

    def scatter(
        self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None
    ) -> CollectiveOp:
        return self._rooted("scatter", nbytes, root, comm)

    def allgather(self, nbytes: int, comm: Optional[Communicator] = None) -> CollectiveOp:
        return CollectiveOp("allgather", nbytes, comm)

    def alltoall(self, nbytes: int, comm: Optional[Communicator] = None) -> CollectiveOp:
        return CollectiveOp("alltoall", nbytes, comm)

    # point-to-point ---------------------------------------------------------------

    def send(self, dest: int, tag: int, nbytes: int) -> P2pOp:
        return P2pOp((dest, tag, nbytes), None, True)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> P2pOp:
        return P2pOp(None, (source, tag), True)

    def sendrecv(
        self,
        dest: int,
        send_tag: int,
        nbytes: int,
        source: int = ANY_SOURCE,
        recv_tag: int = ANY_TAG,
    ) -> P2pOp:
        return P2pOp((dest, send_tag, nbytes), (source, recv_tag), True)

    def isend(self, dest: int, tag: int, nbytes: int) -> P2pOp:
        return P2pOp((dest, tag, nbytes), None, False)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> P2pOp:
        return P2pOp(None, (source, tag), False)

    def wait(self, request: Request) -> WaitOp:
        return WaitOp((request,), request)

    def waitall(self, requests: Sequence[Request]) -> WaitOp:
        return WaitOp(tuple(requests), None)

    # priority control -----------------------------------------------------------

    def set_priority(self, priority: int, via: str = "or-nop") -> SetPriorityOp:
        return SetPriorityOp(priority, via)
