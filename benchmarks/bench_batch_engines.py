"""Batched vs scalar engine throughput: the ``run_batch`` payoff.

Drives the fluid and analytic engines over a priority-sweep corpus (12
priority assignments × 16 work vectors = 192 barrier_loop specs — the
shape a balancing search emits, where many specs share profile/priority
pair structure) two ways: scalar cold (a fresh engine per spec, the
pre-batch serving cost) and batched cold (one fresh engine, one
``run_batch``). Warm numbers (same engine, second pass) ride along for
context. Results land in ``benchmarks/results/BENCH_batch.json``.

Acceptance rides along as assertions: batched cold throughput must be
≥5x scalar for the analytic engine and ≥2.5x for the fluid engine. The
fluid bar is lower by necessity, not modesty — each fluid run still
executes a real discrete event loop per spec (~0.9 ms floor on this
corpus), and its ``run_batch`` is the default loop over ``run``: the
whole fluid win is engine reuse (one warm ``System`` and memo for the
batch instead of a fresh engine per spec). The analytic engine's
``run_batch`` is the same default loop: its whole cost is the rate
solve, and the batch wins by reusing the engine's one model, whose memo
already holds the chip states earlier specs solved. Equivalence is
*not* re-proven here (tests/scenarios/test_batch_equivalence.py owns
that); a digest spot check just guards against benchmarking two
different computations.
"""

import itertools
import json
import pathlib
import time

from repro.scenarios import ScenarioSpec
from repro.scenarios.engines import AnalyticEngine, FluidEngine

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_batch.json"

REPS = 3  # best-of-N keeps single-run container jitter out of the ratio

#: Pre-PR baseline, measured at the seed commit (c47331a) on this
#: container with this exact corpus and a fresh engine per spec — the
#: denominator the issue's acceptance ratio refers to. Seeded into
#: ``_meta`` on first write; preserved on regeneration thereafter.
_BASELINE_META = {
    "note": (
        "pre_batch_seed entries measured at commit c47331a (before "
        "run_batch existed) on this container with the same 4-rank "
        "barrier_loop spec shape, fresh engine per spec; per-spec rates "
        "are corpus-size independent on the scalar path. The fluid "
        "engine keeps a real discrete event loop per spec (~0.9 ms/spec "
        "floor here), which bounds its batch speedup below the analytic "
        "engine's; hence the split 5x/2.5x acceptance bars."
    ),
    "pre_batch_seed": {
        "fluid_cold_specs_per_s": 370.7,
        "fluid_cold_ms_per_spec": 2.697,
        "fluid_warm_specs_per_s": 1148.5,
        "analytic_cold_specs_per_s": 1443.5,
        "analytic_cold_ms_per_spec": 0.693,
        "analytic_warm_specs_per_s": 5575.1,
    },
}


def sweep_corpus():
    """192 specs: every (boost-a, boost-b) priority pattern × 16 loads.

    The load perturbations keep every fingerprint distinct while the
    priority patterns repeat — the amortisation shape a search over
    work distributions produces (rate systems dedupe, times don't).
    """
    prio_sets = [
        ((0, a), (1, b), (2, a), (3, b))
        for a, b in itertools.product((4, 5, 6), (3, 4, 5, 6))
    ]
    works_sets = [
        (1.0e9 + 5.0e6 * k, 2.0e9 - 3.0e6 * k,
         1.5e9 + 7.0e6 * k, 2.5e9 - 2.0e6 * k)
        for k in range(16)
    ]
    return [
        ScenarioSpec(
            name=f"sweep-{i}-{j}",
            kind="barrier_loop",
            works=works,
            iterations=2,
            priorities=prios,
        )
        for i, prios in enumerate(prio_sets)
        for j, works in enumerate(works_sets)
    ]


def _best_of(reps, fn):
    """(best_seconds, last_return) over ``reps`` timed calls."""
    best, value = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _measure(engine_cls, specs) -> dict:
    n = len(specs)
    scalar_cold_s, scalar_results = _best_of(
        REPS, lambda: [engine_cls().run(s) for s in specs]
    )
    batch_cold_s, batch_results = _best_of(
        REPS, lambda: engine_cls().run_batch(specs)
    )
    # Same computation on both sides (full equivalence is the test
    # suite's job; this guards the benchmark itself).
    assert [r.total_time for r in batch_results] == [
        r.total_time for r in scalar_results
    ]
    assert [r.digest for r in batch_results] == [
        r.digest for r in scalar_results
    ]

    warm_engine = engine_cls()
    warm_engine.run_batch(specs)
    warm_s, _ = _best_of(REPS, lambda: warm_engine.run_batch(specs))
    return {
        "specs": n,
        "scalar_cold_s": scalar_cold_s,
        "scalar_cold_specs_per_s": n / scalar_cold_s,
        "batch_cold_s": batch_cold_s,
        "batch_cold_specs_per_s": n / batch_cold_s,
        "cold_speedup_x": scalar_cold_s / batch_cold_s,
        "batch_warm_s": warm_s,
        "batch_warm_specs_per_s": n / warm_s,
    }


def test_batch_throughput_vs_scalar():
    specs = sweep_corpus()
    doc = {
        "corpus": {
            "specs": len(specs),
            "priority_sets": 12,
            "works_sets": 16,
            "kind": "barrier_loop",
            "iterations": 2,
        },
        "fluid": _measure(FluidEngine, specs),
        "analytic": _measure(AnalyticEngine, specs),
    }

    assert doc["analytic"]["cold_speedup_x"] >= 5.0, (
        f"analytic batch only {doc['analytic']['cold_speedup_x']:.2f}x "
        f"over scalar cold (need >= 5x)"
    )
    assert doc["fluid"]["cold_speedup_x"] >= 2.5, (
        f"fluid batch only {doc['fluid']['cold_speedup_x']:.2f}x "
        f"over scalar cold (need >= 2.5x)"
    )

    doc["_meta"] = _BASELINE_META
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    if RESULTS_PATH.exists():
        # Keep the committed annotation (baseline context survives hand
        # edits) across regenerations, like the other BENCH_*.json files.
        try:
            doc["_meta"] = json.loads(RESULTS_PATH.read_text())["_meta"]
        except (ValueError, KeyError):
            pass
    RESULTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(
        f"\nfluid: scalar {doc['fluid']['scalar_cold_specs_per_s']:.0f} -> "
        f"batch {doc['fluid']['batch_cold_specs_per_s']:.0f} specs/s "
        f"({doc['fluid']['cold_speedup_x']:.2f}x cold); "
        f"analytic: scalar {doc['analytic']['scalar_cold_specs_per_s']:.0f} "
        f"-> batch {doc['analytic']['batch_cold_specs_per_s']:.0f} specs/s "
        f"({doc['analytic']['cold_speedup_x']:.2f}x cold)"
        f"\n[saved to {RESULTS_PATH}]"
    )
