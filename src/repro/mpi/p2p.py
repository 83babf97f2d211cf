"""Point-to-point message matching and transfer timing.

Implements MPI matching semantics — (source, tag) pairs with wildcards,
FIFO order per (source, dest, tag) — and an eager/rendezvous cost model
typical of a shared-memory MPI like the MPI-CH the paper used:

* *eager* (small messages): the sender's request completes as soon as the
  message is handed to the transport; the receiver completes after
  ``latency + nbytes/bandwidth`` once both sides have posted.
* *rendezvous* (large messages): the sender completes together with the
  receiver — it cannot release the buffer until the transfer drains.

Transfer completions are *scheduled*: the engine returns ``(time,
request, status)`` triples the runtime puts on its event heap; the
runtime calls ``request.complete(status)`` when simulated time reaches
them, so ``Request.done`` always reflects simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple
from collections import deque

from repro.errors import MpiError
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request, RequestKind
from repro.mpi.status import Status
from repro.util.validation import check_non_negative, check_positive

__all__ = ["CommCosts", "MessageEngine"]


@dataclass(frozen=True)
class CommCosts:
    """Transfer cost parameters (shared-memory MPI defaults)."""

    latency: float = 2.0e-6
    bandwidth: float = 1.5e9  # bytes/second
    eager_threshold: int = 65536
    #: CPU-side cost charged to a rank for posting any MPI call.
    call_overhead: float = 0.5e-6

    def __post_init__(self) -> None:
        check_non_negative("latency", self.latency)
        check_positive("bandwidth", self.bandwidth)
        check_non_negative("eager_threshold", self.eager_threshold)
        check_non_negative("call_overhead", self.call_overhead)

    def transfer_time(self, nbytes: int) -> float:
        """Wire time for ``nbytes``."""
        check_non_negative("nbytes", nbytes)
        return self.latency + nbytes / self.bandwidth


@dataclass
class _PostedSend:
    src: int
    dst: int
    tag: int
    nbytes: int
    time: float
    request: Request
    #: True once the sender's completion has been scheduled (eager path).
    sender_released: bool = False


@dataclass
class _PostedRecv:
    dst: int
    src: int  # may be ANY_SOURCE
    tag: int  # may be ANY_TAG
    time: float
    request: Request


class MessageEngine:
    """Posted-send / posted-recv queues with MPI matching order.

    ``pair_costs`` (optional) resolves per-pair transfer parameters —
    multi-node machines route inter-node messages over the network model
    instead of shared memory. Defaults to uniform ``costs``.
    """

    def __init__(
        self,
        n_ranks: int,
        costs: Optional[CommCosts] = None,
        pair_costs=None,
    ) -> None:
        if n_ranks <= 0:
            raise MpiError(f"n_ranks must be > 0, got {n_ranks}")
        self.n_ranks = n_ranks
        self.costs = costs or CommCosts()
        self._pair_costs = pair_costs
        #: Unmatched sends, keyed by destination (FIFO per key preserves
        #: MPI's non-overtaking rule).
        self._sends: Dict[int, Deque[_PostedSend]] = {r: deque() for r in range(n_ranks)}
        #: Unmatched receives, keyed by destination rank.
        self._recvs: Dict[int, Deque[_PostedRecv]] = {r: deque() for r in range(n_ranks)}
        self.messages_matched = 0

    def _check_rank(self, name: str, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise MpiError(f"{name} {rank} out of range 0..{self.n_ranks - 1}")

    def costs_for(self, src: int, dst: int) -> CommCosts:
        """Transfer parameters for a rank pair."""
        if self._pair_costs is not None:
            return self._pair_costs(src, dst)
        return self.costs

    # -- posting ---------------------------------------------------------------

    def post_send(
        self, src: int, dst: int, tag: int, nbytes: int, time: float
    ) -> Tuple[Request, List[Tuple[float, Request, Optional[Status]]]]:
        """Post a send; returns (request, scheduled completions)."""
        self._check_rank("source", src)
        self._check_rank("destination", dst)
        if tag < 0:
            raise MpiError(f"send tag must be >= 0, got {tag}")
        check_non_negative("nbytes", nbytes)
        req = Request(RequestKind.SEND, src)
        posted = _PostedSend(src, dst, tag, nbytes, time, req)
        completions = self._try_match_send(posted)
        if completions is None:
            self._sends[dst].append(posted)
            completions = []
            costs = self.costs_for(src, dst)
            if nbytes <= costs.eager_threshold:
                # Eager: the sender is done as soon as the transport has
                # buffered the message; the transfer itself completes when
                # the receive is eventually posted and matched.
                completions.append((time + costs.call_overhead, req, None))
                posted.sender_released = True
        return req, completions

    def post_recv(
        self, dst: int, src: int, tag: int, time: float
    ) -> Tuple[Request, List[Tuple[float, Request, Optional[Status]]]]:
        """Post a receive; returns (request, scheduled completions)."""
        self._check_rank("destination", dst)
        if src != ANY_SOURCE:
            self._check_rank("source", src)
        if tag < 0 and tag != ANY_TAG:
            raise MpiError(f"recv tag must be >= 0 or ANY_TAG, got {tag}")
        req = Request(RequestKind.RECV, dst)
        posted = _PostedRecv(dst, src, tag, time, req)
        completions = self._try_match_recv(posted)
        if completions is None:
            self._recvs[dst].append(posted)
            completions = []
        return req, completions

    # -- matching ----------------------------------------------------------------

    @staticmethod
    def _matches(send: _PostedSend, recv: _PostedRecv) -> bool:
        return (recv.src in (ANY_SOURCE, send.src)) and (
            recv.tag in (ANY_TAG, send.tag)
        )

    def _schedule(
        self, send: _PostedSend, recv: _PostedRecv
    ) -> List[Tuple[float, Request, Optional[Status]]]:
        self.messages_matched += 1
        costs = self.costs_for(send.src, send.dst)
        start = max(send.time, recv.time)
        # ``transfer_time`` without its check: post_send checked nbytes.
        done = start + (costs.latency + send.nbytes / costs.bandwidth)
        status = Status(source=send.src, tag=send.tag, nbytes=send.nbytes, time=done)
        out: List[Tuple[float, Request, Optional[Status]]] = [(done, recv.request, status)]
        if not send.sender_released:
            if send.nbytes > costs.eager_threshold:
                # Rendezvous: the sender drains with the receiver.
                out.append((done, send.request, None))
            else:
                out.append((send.time + costs.call_overhead, send.request, None))
        return out

    def _try_match_send(
        self, send: _PostedSend
    ) -> Optional[List[Tuple[float, Request, Optional[Status]]]]:
        queue = self._recvs[send.dst]
        for i, recv in enumerate(queue):
            if self._matches(send, recv):
                del queue[i]
                return self._schedule(send, recv)
        return None

    def _try_match_recv(
        self, recv: _PostedRecv
    ) -> Optional[List[Tuple[float, Request, Optional[Status]]]]:
        queue = self._sends[recv.dst]
        for i, send in enumerate(queue):
            if self._matches(send, recv):
                del queue[i]
                return self._schedule(send, recv)
        return None

    # -- diagnostics ---------------------------------------------------------------

    @property
    def unmatched_sends(self) -> int:
        return sum(len(q) for q in self._sends.values())

    @property
    def unmatched_recvs(self) -> int:
        return sum(len(q) for q in self._recvs.values())

    def pending_summary(self) -> str:
        """Human-readable dump for deadlock reports."""
        parts = []
        for dst, q in self._sends.items():
            for s in q:
                parts.append(f"send {s.src}->{dst} tag={s.tag} ({s.nbytes}B)")
        for dst, q in self._recvs.items():
            for r in q:
                src = "*" if r.src == ANY_SOURCE else r.src
                tag = "*" if r.tag == ANY_TAG else r.tag
                parts.append(f"recv {src}->{dst} tag={tag}")
        return "; ".join(parts) if parts else "none"
