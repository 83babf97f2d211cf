"""Synthetic instruction streams and workload *load profiles*.

The paper's MetBench loads each stress one processor resource (the FPU,
the L2 cache, the branch predictor, ...). We model a running thread as a
stationary synthetic instruction stream drawn from a :class:`LoadProfile`:
an instruction-class mix plus cache-miss and branch-misprediction rates
and an instruction-level-parallelism (ILP) factor. The cycle-level
pipeline consumes these streams; the analytic model consumes the profile
directly.

Profiles are deliberately coarse — the reproduction needs *relative*
behaviour (an FPU-bound thread vs. a memory-bound thread under different
decode shares), not per-instruction architectural fidelity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_in_range, check_positive, check_probability

__all__ = [
    "InstrClass",
    "LoadProfile",
    "InstructionStream",
    "SPIN_LOAD",
    "BASE_PROFILES",
]


class InstrClass(enum.IntEnum):
    """Coarse instruction classes mapped to POWER5 functional units."""

    FXU = 0  # fixed-point ALU op
    FPU = 1  # floating-point op
    LOAD = 2  # memory read
    STORE = 3  # memory write
    BRANCH = 4  # conditional branch


@dataclass(frozen=True)
class LoadProfile:
    """Stationary statistical description of one thread's dynamic code.

    Attributes
    ----------
    name:
        Identifier used in throughput memoisation keys — two profiles with
        equal names are assumed interchangeable.
    mix:
        Fraction of dynamic instructions per :class:`InstrClass`; must sum
        to 1 within tolerance.
    l1_miss_rate / l2_miss_rate / l3_miss_rate:
        Per-*memory-access* probability that the access misses L1, and the
        conditional probabilities that an L1 miss also misses L2 / an L2
        miss also misses L3.
    branch_mpki_rate:
        Probability that a branch instruction is mispredicted.
    ilp:
        Mean number of independent instructions available per cycle in the
        thread's window — throttles how much decode bandwidth the thread
        can convert into completions (a chain of dependent FPU ops cannot
        use a 5-wide decode).
    """

    name: str
    mix: Mapping[InstrClass, float]
    l1_miss_rate: float = 0.02
    l2_miss_rate: float = 0.10
    l3_miss_rate: float = 0.10
    branch_mispredict_rate: float = 0.02
    ilp: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("LoadProfile.name must be non-empty")
        total = float(sum(self.mix.values()))
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"LoadProfile {self.name!r}: instruction mix sums to {total}, expected 1.0"
            )
        for cls, frac in self.mix.items():
            if not isinstance(cls, InstrClass):
                raise ConfigurationError(f"mix key {cls!r} is not an InstrClass")
            check_probability(f"mix[{cls.name}]", frac)
        check_probability("l1_miss_rate", self.l1_miss_rate)
        check_probability("l2_miss_rate", self.l2_miss_rate)
        check_probability("l3_miss_rate", self.l3_miss_rate)
        check_probability("branch_mispredict_rate", self.branch_mispredict_rate)
        check_positive("ilp", self.ilp)
        check_in_range("ilp", self.ilp, 0.1, 8.0)

    @property
    def memory_fraction(self) -> float:
        """Fraction of instructions that access memory (loads + stores)."""
        return float(
            self.mix.get(InstrClass.LOAD, 0.0) + self.mix.get(InstrClass.STORE, 0.0)
        )

    @property
    def fpu_fraction(self) -> float:
        return float(self.mix.get(InstrClass.FPU, 0.0))

    @property
    def branch_fraction(self) -> float:
        return float(self.mix.get(InstrClass.BRANCH, 0.0))

    def with_name(self, name: str) -> "LoadProfile":
        """Copy of this profile under a different memoisation name."""
        return replace(self, name=name)

    def mix_vector(self) -> np.ndarray:
        """The mix as a dense vector indexed by :class:`InstrClass`."""
        v = np.zeros(len(InstrClass), dtype=float)
        for cls, frac in self.mix.items():
            v[int(cls)] = frac
        return v


def _mix(
    fxu: float = 0.0,
    fpu: float = 0.0,
    load: float = 0.0,
    store: float = 0.0,
    branch: float = 0.0,
) -> Dict[InstrClass, float]:
    return {
        InstrClass.FXU: fxu,
        InstrClass.FPU: fpu,
        InstrClass.LOAD: load,
        InstrClass.STORE: store,
        InstrClass.BRANCH: branch,
    }


#: The spin-wait loop an MPI-CH rank executes while blocked in
#: ``mpi_barrier``/``mpi_waitall``: a tight flag-polling loop (load the
#: flag, test, branch back) that hits L1 every time. It consumes decode
#: slots without making application progress — the root cause of the SMT
#: imbalance penalty.
SPIN_LOAD = LoadProfile(
    name="spin",
    mix=_mix(fxu=0.55, load=0.25, branch=0.20),
    l1_miss_rate=0.001,
    l2_miss_rate=0.01,
    l3_miss_rate=0.01,
    branch_mispredict_rate=0.001,
    ilp=2.5,
)

#: Ready-made profiles for the MetBench loads and common application mixes.
BASE_PROFILES: Dict[str, LoadProfile] = {
    # MetBench 'cpu_fpu': dense floating-point kernel, high ILP, tiny footprint.
    "fpu": LoadProfile(
        name="fpu",
        mix=_mix(fxu=0.15, fpu=0.55, load=0.20, store=0.05, branch=0.05),
        l1_miss_rate=0.005,
        l2_miss_rate=0.02,
        l3_miss_rate=0.02,
        branch_mispredict_rate=0.005,
        ilp=3.0,
    ),
    # MetBench 'l2': working set larger than L1, resident in L2.
    "l2": LoadProfile(
        name="l2",
        mix=_mix(fxu=0.25, fpu=0.10, load=0.45, store=0.15, branch=0.05),
        l1_miss_rate=0.30,
        l2_miss_rate=0.02,
        l3_miss_rate=0.05,
        branch_mispredict_rate=0.01,
        ilp=2.0,
    ),
    # MetBench 'mem': streaming footprint blowing through L2/L3.
    "mem": LoadProfile(
        name="mem",
        mix=_mix(fxu=0.20, fpu=0.10, load=0.50, store=0.15, branch=0.05),
        l1_miss_rate=0.35,
        l2_miss_rate=0.50,
        l3_miss_rate=0.60,
        branch_mispredict_rate=0.01,
        ilp=1.5,
    ),
    # MetBench 'branch': branch-predictor stress.
    "branch": LoadProfile(
        name="branch",
        mix=_mix(fxu=0.40, load=0.20, store=0.05, branch=0.35),
        l1_miss_rate=0.01,
        l2_miss_rate=0.05,
        l3_miss_rate=0.05,
        branch_mispredict_rate=0.15,
        ilp=1.8,
    ),
    # MetBench 'int': integer ALU kernel.
    "int": LoadProfile(
        name="int",
        mix=_mix(fxu=0.60, load=0.25, store=0.05, branch=0.10),
        l1_miss_rate=0.01,
        l2_miss_rate=0.05,
        l3_miss_rate=0.05,
        branch_mispredict_rate=0.02,
        ilp=2.5,
    ),
    # Balanced HPC kernel mix (MetBench/BT-MZ default): decode-hungry,
    # moderately FXU-bound, L1-resident. Calibrated so that at equal
    # priorities a pair mutually slows ~10 % (shared FXU + L1), while a
    # priority-2 gap starves the victim to its decode share — the regime
    # the paper's MetBench and BT-MZ numbers exhibit.
    "hpc": LoadProfile(
        name="hpc",
        mix=_mix(fxu=0.45, fpu=0.10, load=0.28, store=0.05, branch=0.12),
        l1_miss_rate=0.04,
        l2_miss_rate=0.08,
        l3_miss_rate=0.10,
        branch_mispredict_rate=0.01,
        ilp=3.2,
    ),
    # BT-MZ-like CFD mix: FP heavy with a real cache footprint. The
    # footprint (L1 misses + shared-L2 traffic) makes a pair of these
    # mutually slow ~25 % at equal priorities, so the favoured thread of
    # a prioritised pair gains substantially — the regime the paper's
    # Table V shows (P4 sped up ~25 % in case C).
    "cfd": LoadProfile(
        name="cfd",
        mix=_mix(fxu=0.20, fpu=0.40, load=0.27, store=0.08, branch=0.05),
        l1_miss_rate=0.16,
        l2_miss_rate=0.10,
        l3_miss_rate=0.15,
        branch_mispredict_rate=0.01,
        ilp=3.4,
    ),
    # SIESTA-like DFT mix: dense linear algebra over a large working set.
    # Memory-bound: priority gaps of 1 barely bind (the victim's demand is
    # below even a 1/4 decode share) while the favoured thread gains from
    # reduced cache/memory contention — the mild, congestion-dominated
    # regime SIESTA shows in the paper's Table VI.
    "dft": LoadProfile(
        name="dft",
        mix=_mix(fxu=0.22, fpu=0.38, load=0.28, store=0.07, branch=0.05),
        l1_miss_rate=0.15,
        l2_miss_rate=0.25,
        l3_miss_rate=0.30,
        branch_mispredict_rate=0.015,
        ilp=3.6,
    ),
    "spin": SPIN_LOAD,
}


@dataclass
class InstructionStream:
    """Deterministic synthetic instruction generator for one thread.

    Yields ``(instr_class, l1_miss, l2_miss, l3_miss, mispredict)`` tuples
    drawn i.i.d. from the profile using the supplied RNG. Generation is in
    blocks for speed; the iterator protocol hides the blocking.
    """

    profile: LoadProfile
    rng: np.random.Generator
    block: int = 4096
    _classes: np.ndarray = field(init=False, repr=False)
    _miss1: np.ndarray = field(init=False, repr=False)
    _miss2: np.ndarray = field(init=False, repr=False)
    _miss3: np.ndarray = field(init=False, repr=False)
    _mpred: np.ndarray = field(init=False, repr=False)
    _pos: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        check_positive("block", self.block)
        self._refill()

    def _refill(self) -> None:
        p = self.profile
        mix = p.mix_vector()
        n = self.block
        self._classes = self.rng.choice(len(InstrClass), size=n, p=mix)
        u = self.rng.random((n, 4))
        self._miss1 = u[:, 0] < p.l1_miss_rate
        self._miss2 = u[:, 1] < p.l2_miss_rate
        self._miss3 = u[:, 2] < p.l3_miss_rate
        self._mpred = u[:, 3] < p.branch_mispredict_rate
        self._pos = 0

    def next_instruction(self) -> Tuple[InstrClass, bool, bool, bool, bool]:
        """Return the next synthetic instruction descriptor."""
        if self._pos >= self.block:
            self._refill()
        i = self._pos
        self._pos += 1
        return (
            InstrClass(int(self._classes[i])),
            bool(self._miss1[i]),
            bool(self._miss2[i]),
            bool(self._miss3[i]),
            bool(self._mpred[i]),
        )

    def __iter__(self) -> Iterator[Tuple[InstrClass, bool, bool, bool, bool]]:
        while True:
            yield self.next_instruction()

