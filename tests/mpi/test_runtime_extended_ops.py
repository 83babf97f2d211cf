"""Extended MPI surface: sendrecv and the remaining collectives."""

import pytest

from repro.errors import MpiError
from repro.machine.mapping import ProcessMapping
from repro.mpi.communicator import Communicator
from repro.mpi.process import P2pOp, RankApi
from repro.mpi.status import Status


def run(system, programs, **kw):
    return system.run(programs, ProcessMapping.identity(len(programs)), **kw)


class TestSendrecv:
    def test_pairwise_exchange_deadlock_free(self, system):
        """The textbook MPI_Sendrecv use: a shift exchange that would
        deadlock with blocking rendezvous sends."""
        big = 1 << 20  # rendezvous-sized
        seen = {}

        def make(rank, peer):
            def prog(mpi):
                status = yield mpi.sendrecv(
                    dest=peer, send_tag=0, nbytes=big, source=peer, recv_tag=0
                )
                seen[rank] = status

            return prog

        run(system, [make(0, 1), make(1, 0)])
        assert isinstance(seen[0], Status)
        assert seen[0].source == 1 and seen[0].nbytes == big
        assert seen[1].source == 0

    def test_sendrecv_in_ring(self, system):
        def make(rank, size):
            def prog(mpi):
                for it in range(3):
                    yield mpi.compute(1e8, profile="hpc")
                    yield mpi.sendrecv(
                        dest=(rank + 1) % size,
                        send_tag=it,
                        nbytes=4096,
                        source=(rank - 1) % size,
                        recv_tag=it,
                    )

            return prog

        result = run(system, [make(r, 4) for r in range(4)])
        assert result.total_time > 0
        for r in result.stats.ranks:
            assert r.compute_fraction > 0.5

    def test_sendrecv_resumes_with_recv_status(self, system):
        got = {}

        def a(mpi):
            status = yield mpi.sendrecv(
                dest=1, send_tag=5, nbytes=64, source=1, recv_tag=9
            )
            got["status"] = status

        def b(mpi):
            yield mpi.sendrecv(dest=0, send_tag=9, nbytes=128, source=0, recv_tag=5)

        run(system, [a, b])
        assert got["status"].tag == 9
        assert got["status"].nbytes == 128


class TestMoreCollectives:
    @pytest.mark.parametrize("op_name", ["gather", "scatter", "allgather", "alltoall"])
    def test_collective_synchronises_all_ranks(self, system, op_name):
        def make(work):
            def prog(mpi):
                yield mpi.compute(work, profile="hpc")
                yield getattr(mpi, op_name)(4096)

            return prog

        result = run(system, [make(1e8), make(2e9), make(1e8), make(1e8)])
        # Light ranks wait for the heavy one at the collective.
        assert result.stats.rank_stats(0).sync_fraction > 0.5
        assert result.stats.rank_stats(1).sync_fraction < 0.1

    def test_alltoall_costs_more_than_gather(self, system):
        def make(op_name):
            def prog(mpi):
                for _ in range(50):
                    yield getattr(mpi, op_name)(1 << 16)

            return prog

        t_gather = run(system, [make("gather")] * 4).total_time
        t_alltoall = run(system, [make("alltoall")] * 4).total_time
        assert t_alltoall > t_gather

    def test_collectives_on_subcommunicator(self, system):
        sub = Communicator([0, 1], name="pair")

        def member(mpi):
            yield mpi.compute(1e8, profile="hpc")
            yield mpi.allgather(1024, comm=sub)

        def outsider(mpi):
            yield mpi.compute(1e8, profile="hpc")

        result = run(system, [member, member, outsider])
        assert result.total_time > 0

    def test_mixed_collective_sequence(self, system):
        def prog(mpi):
            yield mpi.scatter(8192, root=0)
            yield mpi.compute(1e8, profile="hpc")
            yield mpi.allreduce(64)
            yield mpi.gather(8192, root=0)

        result = run(system, [prog, prog, prog, prog])
        assert result.total_time > 0


class TestRootedCollectiveRoots:
    """A rooted collective's root must be a rank of its communicator."""

    ROOTED = ["bcast", "reduce", "gather", "scatter"]

    @pytest.mark.parametrize("op_name", ROOTED)
    @pytest.mark.parametrize("root", [-1, 4, 99])
    def test_world_root_outside_the_world_raises(self, op_name, root):
        with pytest.raises(MpiError, match="root"):
            getattr(RankApi(0, 4), op_name)(8, root=root)

    @pytest.mark.parametrize("op_name", ROOTED)
    @pytest.mark.parametrize("root", [-1, 2])
    def test_sub_communicator_root_is_checked_against_its_size(self, op_name, root):
        pair = Communicator([0, 1], name="pair")
        with pytest.raises(MpiError, match="root"):
            getattr(RankApi(0, 4), op_name)(8, root=root, comm=pair)

    @pytest.mark.parametrize("op_name", ROOTED)
    def test_every_valid_root_is_accepted(self, op_name):
        api = RankApi(0, 4)
        for root in range(4):
            assert getattr(api, op_name)(8, root=root).root == root
        pair = Communicator([2, 3], name="pair")
        assert getattr(api, op_name)(8, root=1, comm=pair).root == 1


class TestP2pPost:
    def test_a_post_needs_a_send_or_a_receive(self):
        with pytest.raises(MpiError):
            P2pOp(None, None, True)

    def test_a_nonblocking_post_has_exactly_one_side(self):
        with pytest.raises(MpiError):
            P2pOp((1, 0, 8), (1, 0), False)
        assert P2pOp((1, 0, 8), (1, 0), True).recv == (1, 0)
