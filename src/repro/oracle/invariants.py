"""Registry of machine-checkable physics invariants.

Every law the reproduction rests on — the Table II/III decode-slice
arithmetic, IPC monotonicity in own priority, trace well-formedness and
time conservation, cache-on/off state equality — is written here once as
an executable check, keyed by name and *scope*:

``decode``
    Pure arbitration law; needs no subject (the law is global).
``model``
    Takes a throughput model (``core_ipc``/``chip_ipc`` protocol).
``trace``
    Takes a finished :class:`~repro.trace.trace.Trace`.
``run``
    Takes a :class:`~repro.mpi.runtime.RunResult`.

Checks raise :class:`~repro.errors.InvariantViolation` with the registry
name and a concrete counterexample, so a CI failure names the broken law
directly. The :mod:`repro.oracle.checker` layer decides *when* checks
run (live in the runtime, post-hoc in the experiment runner, or from the
``repro oracle`` CLI); this module only defines *what* must hold.

The Table II/III references below are **literal transcriptions** of the
paper's tables, kept deliberately separate from
:mod:`repro.smt.decode`'s arithmetic: the invariant compares two
independent statements of the same law, so a typo in either is caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InvariantViolation
from repro.smt.decode import (
    OFF_VERY_LOW_SLICE,
    OS_PRIORITY_RANGE,
    POWER_SAVE_SLICE,
    ArbitrationMode,
    decode_allocation,
    decode_pattern,
    decode_share,
    enumerate_allocations,
)
from repro.smt.instructions import BASE_PROFILES

__all__ = [
    "Invariant",
    "REGISTRY",
    "invariant",
    "invariants_for_scope",
    "get_invariant",
    "PAPER_TABLE_II",
    "PAPER_TABLE_III",
]

#: Paper Table II, transcribed literally: priority difference |X-Y| ->
#: (R, decode cycles for the favoured thread, cycles for the other).
PAPER_TABLE_II: Dict[int, Tuple[int, int, int]] = {
    0: (2, 1, 1),
    1: (4, 3, 1),
    2: (8, 7, 1),
    3: (16, 15, 1),
    4: (32, 31, 1),
    5: (64, 63, 1),
}

#: Paper Table III, transcribed literally: qualitative regime per
#: (prio_a, prio_b) class, with the guaranteed decode share of each
#: thread (``None`` = whatever Table II says).
PAPER_TABLE_III = (
    ("both > 1", ArbitrationMode.NORMAL, None, None),
    ("a == 1, b > 1", ArbitrationMode.LEFTOVER, 0.0, 1.0),
    ("both == 1", ArbitrationMode.POWER_SAVE, 1.0 / 64.0, 1.0 / 64.0),
    ("a == 0, b > 1", ArbitrationMode.SINGLE_THREAD, 0.0, 1.0),
    ("a == 0, b == 1", ArbitrationMode.SINGLE_THREAD_SLOW, 0.0, 1.0 / 32.0),
    ("both == 0", ArbitrationMode.STOPPED, 0.0, 0.0),
)


@dataclass(frozen=True)
class Invariant:
    """One named, machine-checkable law."""

    name: str
    scope: str  # "decode" | "model" | "trace" | "run"
    description: str
    check: Callable[..., None]

    def __call__(self, *subject) -> None:
        self.check(*subject)


REGISTRY: Dict[str, Invariant] = {}

_SCOPES = ("decode", "model", "trace", "run")


def invariant(name: str, scope: str, description: str):
    """Class-level decorator registering a check function."""
    if scope not in _SCOPES:
        raise ValueError(f"unknown invariant scope {scope!r}")
    if name in REGISTRY:
        raise ValueError(f"duplicate invariant {name!r}")

    def register(fn: Callable[..., None]) -> Callable[..., None]:
        REGISTRY[name] = Invariant(name, scope, description, fn)
        return fn

    return register


def invariants_for_scope(scope: str) -> List[Invariant]:
    """All registered invariants of ``scope``, in registration order."""
    if scope not in _SCOPES:
        raise ValueError(f"unknown invariant scope {scope!r}")
    return [inv for inv in REGISTRY.values() if inv.scope == scope]


def get_invariant(name: str) -> Invariant:
    try:
        return REGISTRY[name]
    except KeyError:
        raise InvariantViolation(name, "no such invariant registered") from None


def _fail(name: str, detail: str) -> None:
    raise InvariantViolation(name, detail)


# -- decode-law invariants -------------------------------------------------------


@invariant(
    "decode.table2",
    "decode",
    "R = 2^(|X-Y|+1); slices split R-1:1 toward the higher priority "
    "(literal paper Table II, every pair with both priorities > 1)",
)
def _check_table2() -> None:
    for (a, b), alloc in enumerate_allocations():
        if a <= 1 or b <= 1:
            continue
        expected_r, fav, other = PAPER_TABLE_II[abs(a - b)]
        if alloc.slice_cycles != expected_r:
            _fail(
                "decode.table2",
                f"pair ({a},{b}): slice is {alloc.slice_cycles}, "
                f"Table II says R={expected_r}",
            )
        got = (alloc.cycles_a, alloc.cycles_b)
        want = (fav, other) if a >= b else (other, fav)
        if a == b:
            want = (1, 1)
        if got != want:
            _fail(
                "decode.table2",
                f"pair ({a},{b}): cycles {got}, Table II says {want}",
            )
        if alloc.cycles_a + alloc.cycles_b != alloc.slice_cycles:
            _fail(
                "decode.table2",
                f"pair ({a},{b}): cycles {got} do not sum to R={alloc.slice_cycles}",
            )


@invariant(
    "decode.table3",
    "decode",
    "priority-0/1 special regimes match the literal paper Table III "
    "(leftover, power save, ST mode, 1-of-32, stopped)",
)
def _check_table3() -> None:
    for (a, b), alloc in enumerate_allocations():
        if a > 1 and b > 1:
            expected = ArbitrationMode.NORMAL
            shares = (None, None)
        elif a == 1 and b > 1:
            expected = ArbitrationMode.LEFTOVER
            shares = (0.0, 1.0)
        elif b == 1 and a > 1:
            expected = ArbitrationMode.LEFTOVER
            shares = (1.0, 0.0)
        elif a == 1 and b == 1:
            expected = ArbitrationMode.POWER_SAVE
            shares = (1.0 / POWER_SAVE_SLICE, 1.0 / POWER_SAVE_SLICE)
        elif a == 0 and b > 1:
            expected = ArbitrationMode.SINGLE_THREAD
            shares = (0.0, 1.0)
        elif b == 0 and a > 1:
            expected = ArbitrationMode.SINGLE_THREAD
            shares = (1.0, 0.0)
        elif a == 0 and b == 1:
            expected = ArbitrationMode.SINGLE_THREAD_SLOW
            shares = (0.0, 1.0 / OFF_VERY_LOW_SLICE)
        elif b == 0 and a == 1:
            expected = ArbitrationMode.SINGLE_THREAD_SLOW
            shares = (1.0 / OFF_VERY_LOW_SLICE, 0.0)
        else:  # both 0
            expected = ArbitrationMode.STOPPED
            shares = (0.0, 0.0)
        if alloc.mode is not expected:
            _fail(
                "decode.table3",
                f"pair ({a},{b}): mode {alloc.mode.value}, "
                f"Table III says {expected.value}",
            )
        for label, want, got in (
            ("A", shares[0], alloc.share_a),
            ("B", shares[1], alloc.share_b),
        ):
            if want is not None and abs(got - want) > 1e-12:
                _fail(
                    "decode.table3",
                    f"pair ({a},{b}): thread {label} guaranteed share "
                    f"{got}, Table III says {want}",
                )


@invariant(
    "decode.pattern",
    "decode",
    "the cyclic decode pattern realises exactly the allocation's "
    "per-slice cycle counts for every priority pair",
)
def _check_pattern() -> None:
    for (a, b), alloc in enumerate_allocations():
        pattern = decode_pattern(a, b)
        if len(pattern) != alloc.slice_cycles:
            _fail(
                "decode.pattern",
                f"pair ({a},{b}): pattern length {len(pattern)} != "
                f"slice {alloc.slice_cycles}",
            )
        counts = (pattern.count(0), pattern.count(1))
        if counts != (alloc.cycles_a, alloc.cycles_b):
            _fail(
                "decode.pattern",
                f"pair ({a},{b}): pattern grants {counts}, allocation "
                f"says {(alloc.cycles_a, alloc.cycles_b)}",
            )


@invariant(
    "decode.share_monotone",
    "decode",
    "raising a thread's own priority never lowers its decode share "
    "(for any fixed sibling priority in the OS range)",
)
def _check_share_monotone() -> None:
    for sibling in OS_PRIORITY_RANGE:
        prev = None
        for own in range(2, 7):  # the Table II regime
            share = decode_share(own, sibling)[0]
            if prev is not None and share < prev - 1e-12:
                _fail(
                    "decode.share_monotone",
                    f"sibling {sibling}: share fell from {prev} to "
                    f"{share} when own priority rose to {own}",
                )
            prev = share


# -- model invariants ------------------------------------------------------------


def _model_profiles() -> List[str]:
    """Profiles the model invariants sweep (compute-heavy + memory-heavy)."""
    wanted = [n for n in ("hpc", "mem", "dft") if n in BASE_PROFILES]
    return wanted or sorted(BASE_PROFILES)[:2]


#: Slack for the monotonicity invariants. The analytic model is
#: closed-form and satisfies them exactly, but the cycle model *measures*
#: IPC over a finite pipeline window: alignment effects put a relative
#: noise floor on those measurements (empirically up to ~17% at the
#: oracle's 8k-cycle windows), and for very low-IPC (memory-bound)
#: profiles the handful of retirements per window adds an absolute
#: quantisation floor on top. A genuine priority inversion moves the
#: decode share by a power of two, which shifts IPC by *multiples* —
#: far beyond either floor.
_MEASUREMENT_SLACK = 0.25
_MEASUREMENT_ABS_SLACK = 0.01


def _dropped_beyond_slack(prev: float, ipc: float) -> bool:
    return prev - ipc > max(prev * _MEASUREMENT_SLACK, _MEASUREMENT_ABS_SLACK)


@invariant(
    "model.ipc_monotone",
    "model",
    "a thread's IPC is non-decreasing in its own priority, all else fixed",
)
def _check_ipc_monotone(model) -> None:
    for name in _model_profiles():
        profile = BASE_PROFILES[name]
        for sibling_prio in (2, 4, 6):
            prev = None
            for own in range(2, 7):
                ipc = model.core_ipc(profile, profile, own, sibling_prio)[0]
                if not math.isfinite(ipc) or ipc < 0:
                    _fail(
                        "model.ipc_monotone",
                        f"{name}: non-physical IPC {ipc} at ({own},{sibling_prio})",
                    )
                if prev is not None and _dropped_beyond_slack(prev, ipc):
                    _fail(
                        "model.ipc_monotone",
                        f"{name} vs sibling prio {sibling_prio}: IPC fell "
                        f"from {prev} to {ipc} when own priority rose to {own}",
                    )
                prev = max(prev, ipc) if prev is not None else ipc


@invariant(
    "model.sibling_pressure",
    "model",
    "raising the sibling's priority never speeds the victim up",
)
def _check_sibling_pressure(model) -> None:
    for name in _model_profiles():
        profile = BASE_PROFILES[name]
        prev = None
        for sibling in range(2, 7):
            ipc = model.core_ipc(profile, profile, 4, sibling)[0]
            if prev is not None and _dropped_beyond_slack(ipc, prev):
                _fail(
                    "model.sibling_pressure",
                    f"{name}: victim IPC rose from {prev} to {ipc} when "
                    f"the sibling's priority rose to {sibling}",
                )
            prev = min(prev, ipc) if prev is not None else ipc


@invariant(
    "model.cache_equivalence",
    "model",
    "memoised solves equal a fresh uncached model's, state for state",
)
def _check_cache_equivalence(model) -> None:
    # Imported here: the uncached twin only exists for analytic models.
    from repro.smt.analytic import AnalyticThroughputModel

    if not isinstance(model, AnalyticThroughputModel):
        return  # cycle tables have no cache-off twin; nothing to compare
    bare = AnalyticThroughputModel(
        model.config, core_cache_size=0, chip_cache_size=0
    )
    for name in _model_profiles():
        profile = BASE_PROFILES[name]
        for pair in ((4, 4), (4, 6), (2, 6), (6, 1), (7, 0)):
            cached = model.core_ipc(profile, profile, *pair)
            plain = bare.core_ipc(profile, profile, *pair)
            if cached != plain:
                _fail(
                    "model.cache_equivalence",
                    f"{name} at {pair}: cached {cached} != uncached {plain}",
                )


# -- trace invariants ------------------------------------------------------------


@invariant(
    "trace.well_formed",
    "trace",
    "timestamps are monotone, intervals strictly positive and contiguous "
    "(every enter matched by the next exit)",
)
def _check_trace_well_formed(trace) -> None:
    from repro.errors import TraceError

    try:
        trace.validate()
    except TraceError as exc:
        _fail("trace.well_formed", str(exc))


@invariant(
    "trace.conservation",
    "trace",
    "per-rank busy+wait+run time adds up: each rank's intervals tile "
    "[first transition, its finish] with no gap",
)
def _check_trace_conservation(trace) -> None:
    total = trace.total_time
    for tl in trace:
        if not tl.intervals:
            continue
        accounted = sum(iv.duration for iv in tl.intervals)
        span = tl.intervals[-1].end - tl.intervals[0].start
        if not math.isclose(accounted, span, rel_tol=1e-9, abs_tol=1e-12):
            _fail(
                "trace.conservation",
                f"rank {tl.rank}: intervals account for {accounted}s of a "
                f"{span}s span (time leaked or double-counted)",
            )
        if tl.intervals[-1].end > total + 1e-12:
            _fail(
                "trace.conservation",
                f"rank {tl.rank} runs past the application's total time "
                f"({tl.intervals[-1].end} > {total})",
            )


# -- run invariants --------------------------------------------------------------


@invariant(
    "run.accounting",
    "run",
    "a finished run's totals are physical: non-negative time, stats span "
    "equal to the trace's, priorities architectural",
)
def _check_run_accounting(result) -> None:
    if result.total_time < 0 or not math.isfinite(result.total_time):
        _fail("run.accounting", f"total_time {result.total_time} is not physical")
    if result.events_processed < 0:
        _fail("run.accounting", f"negative events_processed {result.events_processed}")
    if not math.isclose(
        result.stats.total_time, result.trace.total_time, rel_tol=1e-9, abs_tol=1e-12
    ):
        _fail(
            "run.accounting",
            f"stats span {result.stats.total_time} != trace span "
            f"{result.trace.total_time}",
        )
    for prio in result.final_priorities:
        if not 0 <= int(prio) <= 7:
            _fail("run.accounting", f"final priority {prio} outside 0..7")


@invariant(
    "run.fractions",
    "run",
    "per-rank state fractions are probabilities and sum to one",
)
def _check_run_fractions(result) -> None:
    for r in result.stats.ranks:
        parts = r.fractions()
        for label, frac in parts.items():
            if not -1e-12 <= frac <= 1.0 + 1e-9:
                _fail(
                    "run.fractions",
                    f"rank {r.rank}: {label} fraction {frac} outside [0, 1]",
                )
        total = sum(parts.values())
        if result.total_time > 0 and not math.isclose(total, 1.0, rel_tol=1e-9):
            _fail(
                "run.fractions",
                f"rank {r.rank}: state fractions sum to {total}, not 1",
            )
