"""MetBench — the BSC Minimum Execution Time Benchmark (paper VII-A).

Structure, per the paper: a *framework* of one master and several
workers. Workers execute their assigned load, then synchronise; the
master only coordinates ("the master and the workers only exchange data
during the initialization phase and use an ``mpi_barrier()`` to get
synchronized") and starts the next iteration. Imbalance is introduced by
assigning one worker a larger load than the worker sharing its core.

This is the 4-rank layout of the paper's Table IV: the master's
negligible coordination work is folded into rank 0, which is also the
light worker — matching the table, where P1 both computes a little and
waits a lot.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import WorkloadError
from repro.mpi.process import RankApi, RankProgram
from repro.workloads.base import validate_works

__all__ = ["metbench_programs"]

#: Data the master (rank 0) sends each worker during initialisation.
INIT_BYTES = 1 << 20
#: Small statistics bookkeeping after each computation phase (the black
#: bars in Figure 2), as a fraction of the mean work.
STATS_FRACTION = 0.005


def metbench_programs(
    works: Sequence[float],
    iterations: int = 10,
    load: str = "hpc",
) -> List[RankProgram]:
    """Build the rank programs for a MetBench run.

    ``works`` holds each worker's instructions per iteration,
    ``iterations`` the barrier-synchronised iterations ("the number of
    iterations to perform is a run time parameter") and ``load`` the
    load profile every worker runs.
    """
    works = validate_works(works)
    if iterations <= 0:
        raise WorkloadError(f"iterations must be > 0, got {iterations}")
    stats_work = STATS_FRACTION * (sum(works) / len(works))
    return [
        _worker_program(work, iterations, load, stats_work) for work in works
    ]


def _worker_program(
    work: float, iterations: int, load: str, stats_work: float
) -> RankProgram:
    def program(mpi: RankApi):
        # Initialisation: rank 0, the master, sends every worker its work
        # description.
        if mpi.rank != 0:
            yield mpi.recv(source=0, tag=0)
        else:
            for peer in range(1, mpi.size):
                yield mpi.send(dest=peer, tag=0, nbytes=INIT_BYTES)
        yield mpi.barrier()
        for _ in range(iterations):
            if work > 0:
                yield mpi.compute(work, profile=load)
            if stats_work > 0:
                yield mpi.compute(stats_work, profile="int")
            yield mpi.barrier()

    return program
