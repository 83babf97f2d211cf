"""Every rank operation's run, pinned byte for byte.

Each case pins the run's trace digest, ``repr(total_time)``,
``events_processed``, ``priority_history_len``, ``final_priorities`` and
a digest of what every ``yield`` handed back to the rank programs
(requests by kind, statuses by field). Between them
the cases cover:

* every ``RankApi`` operation;
* eager and rendezvous sends, blocking and nonblocking, and ``sendrecv``;
* ``wait`` on a request already done and on one still pending, and
  ``waitall``;
* every collective on ``MPI_COMM_WORLD`` and on a sub-communicator;
* ``set_priority`` through the ``or``-nop and through procfs, on both
  kernels;
* a mixed program under ``wait_mode="block"``.

A change to how the runtime represents or dispatches operations must
leave every value as it is.
"""

import hashlib

import pytest

from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.communicator import Communicator
from repro.mpi.request import Request
from repro.mpi.runtime import RuntimeConfig
from repro.mpi.status import Status
from repro.scenarios.engines import trace_digest

EAGER = 4096
RENDEZVOUS = 1 << 20

#: case -> (trace digest, repr(total_time), events_processed,
#: priority_history_len, final_priorities, resume digest)
PINS = {
    "block-wait": (
        "74502d85c6961c70a802e19b054e393e13023d32ce53353aae7d795a21503705",
        "0.35121433227245735", 26, 8, (2, 2, 2, 2),
        "0f93ba54b7fb55425f0bf2ee1f27bc515ce8c420f748c760cd31a1db5b2b24ae",
    ),
    "blocking-p2p": (
        "66d9fcd88c95962556dcdc85fbd25080c6f76bb0cbbc15a0a702f6280094658e",
        "2.899742392454699", 22, 8, (2, 2, 2, 2),
        "4b52af74a466bda4bde2e00a9a57b34124fcdcb66c56419af1605c76d6faabe2",
    ),
    "collectives-sub": (
        "04cefafd103460e983098d39061c7e52dbe8338b19f22dd25ae932c5a210f027",
        "0.9703722267714664", 56, 8, (2, 2, 2, 2),
        "9020b7fa200c7602f91f41f69896661cba617fc8f17aeb5c86310a75c24c9bc4",
    ),
    "collectives-world": (
        "f9c527f4cf1ed3e2c51f0eba0d74d7df50f9a9af1bad58a836ab4dd4c57f5664",
        "0.9998946806079241", 48, 8, (2, 2, 2, 2),
        "262d01a8f5588ae095b4c119c628cbe47118fc73811aff2c971f114a74fc928b",
    ),
    "nonblocking-p2p": (
        "106a484a0da43f8d70970ea78e670968481a09dc7287fa8e21666726e53efc4e",
        "0.3393793956227791", 32, 8, (2, 2, 2, 2),
        "af6cf7289df68911d5e60b2faadfbc5c7326f0be4de362e4ede6b50efff00bb6",
    ),
    "priority-patched": (
        "2c5f43f407d3c47ac3e19bd742358310a1268c0b6b0fa9ef45a2244af2c9e3b4",
        "1.6878468316416826", 13, 15, (2, 2, 2, 2),
        "e95756a9744f0457ed1b4100edd30ee2d9a58eb68f4f1788aeecb9fa0e15620b",
    ),
    "priority-standard": (
        "2679782dae2ce9e3955a51a41025698d9dc9591e7a47137cf20f34ea2723feac",
        "0.5242104680053191", 13, 14, (2, 2, 2, 2),
        "e95756a9744f0457ed1b4100edd30ee2d9a58eb68f4f1788aeecb9fa0e15620b",
    ),
}


def _shown(value):
    """A run-independent rendering of a resume value (request ids are a
    process-wide counter, so a request shows only its kind)."""
    if isinstance(value, Request):
        return f"req:{value.kind.value}"
    if isinstance(value, Status):
        return f"st:{value.source}:{value.tag}:{value.nbytes}:{value.time!r}"
    return repr(value)


def _logged(body, log):
    """Wrap a rank program so every value ``yield`` returns is logged."""

    def program(mpi):
        gen = body(mpi)
        value = None
        while True:
            try:
                op = gen.send(value)
            except StopIteration:
                return
            value = yield op
            log.append(f"{mpi.rank}:{_shown(value)}")

    return program


def _blocking_p2p(mpi):
    r = mpi.rank
    if r == 0:
        yield mpi.compute(1e8, profile="hpc")
        yield mpi.send(1, 1, EAGER)
        yield mpi.send(1, 2, RENDEZVOUS)  # blocks until rank 1 receives
        yield mpi.recv(source=1, tag=3)
        yield mpi.send(2, 4, EAGER)
    elif r == 1:
        yield mpi.compute(4e8, profile="fpu")
        yield mpi.recv(source=0, tag=1)  # already arrived
        yield mpi.recv()  # ANY_SOURCE / ANY_TAG: the rendezvous
        yield mpi.compute(1e8, profile="int")
        yield mpi.send(0, 3, RENDEZVOUS)
    elif r == 2:
        yield mpi.sendrecv(3, 5, RENDEZVOUS, source=3, recv_tag=6)
        yield mpi.compute(2e8, profile="hpc")
        yield mpi.sendrecv(3, 7, EAGER, source=3, recv_tag=8)
        yield mpi.recv(source=0, tag=4)
    else:
        yield mpi.compute(3e8, profile="mem")
        yield mpi.sendrecv(2, 6, EAGER, source=2, recv_tag=5)
        yield mpi.sendrecv(2, 8, RENDEZVOUS)
    yield mpi.barrier()


def _nonblocking_p2p(mpi):
    r, n = mpi.rank, mpi.size
    right, left = (r + 1) % n, (r - 1) % n
    for it, nbytes in enumerate((EAGER, RENDEZVOUS)):
        rreq = yield mpi.irecv(source=left, tag=it)
        sreq = yield mpi.isend(right, it, nbytes)
        yield mpi.compute(1e8 * (r + 1), profile="hpc")
        yield mpi.waitall([rreq, sreq])
    # wait on a request still pending: the sender computes first.
    if r == 0:
        yield mpi.compute(5e8, profile="fpu")
        req = yield mpi.isend(1, 9, EAGER)
        yield mpi.wait(req)
    elif r == 1:
        req = yield mpi.irecv(source=0, tag=9)
        yield mpi.wait(req)
    # wait on a request already done: the receive lands during compute.
    if r == 2:
        req = yield mpi.isend(3, 10, EAGER)
        yield mpi.compute(2e8, profile="hpc")
        yield mpi.wait(req)
    elif r == 3:
        req = yield mpi.irecv(source=2, tag=10)
        yield mpi.compute(4e8, profile="hpc")
        yield mpi.wait(req)
    # waitall over nothing, and over requests all done.
    yield mpi.waitall([])
    yield mpi.barrier()


def _collectives(comm_of):
    def body(mpi):
        comm = comm_of(mpi.rank)
        work = 1e8 * (1 + mpi.rank)
        yield mpi.init_phase(5e7)
        for op, kw in (
            ("bcast", {"root": 1}),
            ("reduce", {"root": 1}),
            ("allreduce", {}),
            ("gather", {"root": 0}),
            ("scatter", {"root": 1}),
            ("allgather", {}),
            ("alltoall", {}),
        ):
            yield mpi.compute(work, profile="hpc")
            yield getattr(mpi, op)(8192, comm=comm, **kw)
        yield mpi.compute(work, profile="fpu")
        yield mpi.barrier(comm)
        yield mpi.final_phase(5e7)

    return body


def _priority(privileged):
    """Each rank raises or lowers its own priority mid-run; with
    ``privileged`` two ranks write procfs (the patched kernel only)."""

    def body(mpi):
        r = mpi.rank
        yield mpi.compute(2e8, profile="hpc")
        if r == 0:
            yield mpi.set_priority(6, via="procfs" if privileged else "or-nop")
        elif r == 1:
            yield mpi.set_priority(3, via="or-nop")
        elif r == 2:
            yield mpi.set_priority(5, via="or-nop")  # outside 2-4: ignored
        else:
            yield mpi.set_priority(1 if privileged else 2,
                                   via="procfs" if privileged else "or-nop")
        yield mpi.compute(4e8, profile="hpc")
        yield mpi.barrier()
        yield mpi.set_priority(4)
        yield mpi.compute(2e8, profile="fpu")

    return body


def _block_wait(mpi):
    r, n = mpi.rank, mpi.size
    yield mpi.compute(1e8 * (1 + 2 * r), profile="hpc")
    yield mpi.sendrecv((r + 1) % n, 0, RENDEZVOUS, source=(r - 1) % n)
    req = yield mpi.irecv(source=(r + 1) % n, tag=1)
    yield mpi.send((r - 1) % n, 1, EAGER)
    yield mpi.wait(req)
    yield mpi.allreduce(64)
    yield mpi.compute(1e8 * (n - r), profile="fpu")
    yield mpi.barrier()


_EVEN = Communicator([0, 2], name="even")
_ODD = Communicator([1, 3], name="odd")

CASES = {
    "blocking-p2p": (SystemConfig(), _blocking_p2p),
    "nonblocking-p2p": (SystemConfig(), _nonblocking_p2p),
    "collectives-world": (SystemConfig(), _collectives(lambda r: None)),
    "collectives-sub": (
        SystemConfig(), _collectives(lambda r: _EVEN if r % 2 == 0 else _ODD)
    ),
    "priority-patched": (SystemConfig(kernel="patched"), _priority(True)),
    "priority-standard": (SystemConfig(kernel="standard"), _priority(False)),
    "block-wait": (
        SystemConfig(runtime=RuntimeConfig(wait_mode="block")), _block_wait
    ),
}


def _summary(name):
    config, body = CASES[name]
    log = []
    programs = [_logged(body, log) for _ in range(4)]
    run = System(config).run(programs, ProcessMapping.identity(4))
    resumed = hashlib.sha256("\n".join(log).encode()).hexdigest()
    return (
        trace_digest(run),
        repr(run.total_time),
        run.events_processed,
        run.priority_history_len,
        run.final_priorities,
        resumed,
    )


@pytest.mark.parametrize("name", sorted(PINS))
def test_case_matches_its_pin(name):
    assert _summary(name) == PINS[name]


def test_pins_cover_every_rank_operation():
    from repro.mpi.process import RankApi

    used = {
        "compute", "init_phase", "final_phase", "barrier", "bcast", "reduce",
        "allreduce", "gather", "scatter", "allgather", "alltoall", "send",
        "recv", "sendrecv", "isend", "irecv", "wait", "waitall",
        "set_priority",
    }
    public = {name for name in vars(RankApi) if not name.startswith("_")}
    assert public - {"rank", "size"} == used
