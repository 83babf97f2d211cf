"""Synthetic imbalance generators for examples, tests and Figure 1."""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.mpi.process import CollectiveOp, ComputeOp, RankApi, RankProgram
from repro.workloads.base import WorkVector, validate_works

__all__ = [
    "one_heavy_works",
    "linear_ramp_works",
    "random_works",
    "barrier_loop_programs",
    "distant_pairs_programs",
]


def one_heavy_works(
    n_ranks: int, base: float, heavy_factor: float, heavy_rank: int = 0
) -> WorkVector:
    """All ranks get ``base`` work except one with ``base*heavy_factor``.

    The paper's Figure 1 scenario: a single straggler holds everyone up.
    """
    if n_ranks <= 0:
        raise WorkloadError(f"n_ranks must be > 0, got {n_ranks}")
    if not 0 <= heavy_rank < n_ranks:
        raise WorkloadError(f"heavy_rank {heavy_rank} out of range")
    if base <= 0 or heavy_factor <= 0:
        raise WorkloadError("base and heavy_factor must be > 0")
    works = [base] * n_ranks
    works[heavy_rank] = base * heavy_factor
    return validate_works(works)


def linear_ramp_works(n_ranks: int, base: float, slope: float) -> WorkVector:
    """Rank r gets ``base * (1 + slope*r)`` work — a domain-skew pattern."""
    if n_ranks <= 0:
        raise WorkloadError(f"n_ranks must be > 0, got {n_ranks}")
    if base <= 0:
        raise WorkloadError(f"base must be > 0, got {base}")
    if slope < 0:
        raise WorkloadError(f"slope must be >= 0, got {slope}")
    return validate_works([base * (1.0 + slope * r) for r in range(n_ranks)])


def random_works(
    n_ranks: int, base: float, sigma: float, rng: np.random.Generator
) -> WorkVector:
    """Lognormal per-rank work around ``base`` — a sparse-input pattern."""
    if n_ranks <= 0:
        raise WorkloadError(f"n_ranks must be > 0, got {n_ranks}")
    if base <= 0 or sigma < 0:
        raise WorkloadError("base must be > 0 and sigma >= 0")
    draws = rng.lognormal(-0.5 * sigma**2, sigma, n_ranks)
    return validate_works([base * float(d) for d in draws])


def barrier_loop_programs(
    works: Sequence[float],
    iterations: int = 5,
    profile: str = "hpc",
) -> List[RankProgram]:
    """The simplest SPMD shape: compute your share, barrier, repeat.

    The workhorse of the examples and of Figure 1's synthetic trace. The
    programs hold no state, so one set is built (and its works checked)
    per distinct ``(works, iterations, profile)`` and handed out again:
    a search calls this once per candidate with the same works.
    """
    return list(_barrier_loop(tuple(works), iterations, profile))


@functools.lru_cache(maxsize=64, typed=True)
def _barrier_loop(
    works: Tuple[float, ...], iterations: int, profile: str
) -> Tuple[RankProgram, ...]:
    works = validate_works(works)
    if iterations <= 0:
        raise WorkloadError(f"iterations must be > 0, got {iterations}")

    barrier = CollectiveOp("barrier")

    def make(rank_work: float) -> RankProgram:
        # Operations are immutable values, so one of each serves every
        # iteration of every run.
        compute = ComputeOp(rank_work, profile) if rank_work > 0 else None

        def program(mpi: RankApi):
            for _ in range(iterations):
                if compute is not None:
                    yield compute
                yield barrier

        return program

    return tuple(make(w) for w in works)


def distant_pairs_programs(
    works: Sequence[float],
    iterations: int = 5,
    profile: str = "hpc",
    exchange_bytes: int = 65536,
) -> List[RankProgram]:
    """Compute + a pairwise exchange with the rank half the ring away.

    Rank ``r`` exchanges ``exchange_bytes`` with partner
    ``(r + n/2) % n`` every iteration (the pairing is involutive, so
    each sendrecv has a matching peer), then synchronises on a barrier.
    On one chip every partner is a core or sibling away; on a cluster
    the *placement* decides whether partners talk over shared memory or
    the network — which is exactly the extrinsic-imbalance axis the
    cluster corpus probes. Needs an even rank count.
    """
    works = validate_works(works)
    n = len(works)
    if n % 2:
        raise WorkloadError(f"distant_pairs needs an even rank count, got {n}")
    if iterations <= 0:
        raise WorkloadError(f"iterations must be > 0, got {iterations}")
    if exchange_bytes < 0:
        raise WorkloadError(
            f"exchange_bytes must be >= 0, got {exchange_bytes}"
        )

    def make(rank: int, rank_work: float) -> RankProgram:
        partner = (rank + n // 2) % n

        def program(mpi: RankApi):
            for _ in range(iterations):
                if rank_work > 0:
                    yield mpi.compute(rank_work, profile=profile)
                yield mpi.sendrecv(
                    partner, rank, exchange_bytes, partner, partner
                )
                yield mpi.barrier()

        return program

    return [make(r, w) for r, w in enumerate(works)]
