"""When a blocking point-to-point post resumes its rank.

Every request completes through the event heap, never at its post. A
blocking receive whose eager message was sent long before still pays the
transfer, charged from the receive's post: it resumes at post + latency +
nbytes/bandwidth. A blocking eager send resumes at post + call_overhead.
Completing either at the post would change the physics and every
point-to-point trace digest.
"""

import pytest

from repro.machine.mapping import ProcessMapping
from repro.mpi.p2p import CommCosts
from repro.trace.events import RankState

NBYTES = 1024
COSTS = CommCosts()


def _late_receiver_run(system):
    def sender(mpi):
        yield mpi.send(dest=1, tag=7, nbytes=NBYTES)

    def receiver(mpi):
        yield mpi.compute(1e7, profile="hpc")
        yield mpi.recv(source=0, tag=7)

    result = system.run([sender, receiver], ProcessMapping.identity(2))
    return [
        [(iv.start, iv.end, iv.state) for iv in tl.intervals] for tl in result.trace
    ]


class TestBlockingPostCompletion:
    def test_late_recv_pays_the_transfer_from_its_post(self, system):
        _, receiver = _late_receiver_run(system)
        (_, posted, compute), (start, resumed, comm) = receiver
        assert (compute, comm) == (RankState.COMPUTE, RankState.COMM)
        assert start == posted > 0.0
        assert resumed == posted + (COSTS.latency + NBYTES / COSTS.bandwidth)
        assert resumed - posted == pytest.approx(2.6827e-6, rel=1e-4)

    def test_eager_send_resumes_after_the_call_overhead(self, system):
        sender, _ = _late_receiver_run(system)
        (start, resumed, state), (_, _, idle) = sender
        assert (state, idle) == (RankState.COMM, RankState.IDLE)
        assert start == 0.0
        assert resumed == COSTS.call_overhead
