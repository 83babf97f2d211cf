"""Telemetry overhead: the off-path must cost (near) nothing.

Runs the same warm fluid-engine scenario with the hot-path telemetry
gate off and on, records both distributions to
``benchmarks/results/BENCH_telemetry.json``, and asserts:

* the trace digest is identical either way (observational neutrality —
  the same property ``tests/telemetry/test_trace_neutrality.py`` pins);
* the off-path stays within noise of the pre-refactor baseline recorded
  in ``_meta`` (measured at the commit before the telemetry layer
  existed, on the same workload);
* enabling the gate costs at most a modest constant factor.

The workload reproduces the baseline measurement exactly: a 4-rank
``barrier_loop`` with 200 iterations on a warm engine, timed over
repeated runs (several thousand simulation events per run, so the
per-run ``is None`` checks are measured against real event-loop work).
"""

import json
import pathlib
import time

from repro.scenarios.registry import get_engine
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry import set_enabled

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_telemetry.json"

REPS = 7

#: Off-path regression band vs the _meta baseline. Generous because the
#: baseline may come from another machine/load; same-machine runs sit
#: well inside it. The off-vs-on comparison below is load-free.
BASELINE_NOISE_FACTOR = 1.5

#: Measured pre-refactor (commit 8f492a7, this exact workload/loop):
#: the cross-commit anchor, seeded into _meta on first generation and
#: preserved across regenerations afterwards.
_BASELINE_META = {
    "baseline_commit": "8f492a7",
    "baseline_note": (
        "fluid barrier_loop iterations=200, warm engine, 7 reps, "
        "measured before the telemetry layer was introduced"
    ),
    # Re-anchored at commit 59453f5, whose analytic core-memo key took
    # the exact external traffic instead of rounding it to 1e-4 and moved
    # this trace (was c260ede79281a242); total time stayed bitwise
    # 290.90989090909056.
    "baseline_digest_prefix": "f078337dbb5f1701",
    "baseline_min_s": 0.014150,
    "baseline_median_s": 0.014824,
    "baseline_mean_s": 0.014941,
}


def _spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-telemetry",
        kind="barrier_loop",
        works=(1.0e9, 2.0e9, 1.5e9, 3.0e9),
        iterations=200,
        priorities=((0, 4), (1, 6), (2, 4), (3, 6)),
    )


def _measure(engine, spec, telemetry_on: bool) -> dict:
    previous = set_enabled(telemetry_on)
    try:
        engine.run(spec)  # warm run under the same gate state
        digest = None
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            result = engine.run(spec)
            times.append(time.perf_counter() - t0)
            digest = result.digest
    finally:
        set_enabled(previous)
    times.sort()
    return {
        "digest": digest,
        "reps": REPS,
        "min_s": times[0],
        "median_s": times[len(times) // 2],
        "mean_s": sum(times) / len(times),
        "max_s": times[-1],
    }


def test_telemetry_overhead():
    engine = get_engine("fluid")
    spec = _spec()

    off = _measure(engine, spec, telemetry_on=False)
    on = _measure(engine, spec, telemetry_on=True)

    # Neutrality: the gate may not move a single trace byte.
    assert off["digest"] == on["digest"]
    assert off["digest"].startswith(_BASELINE_META["baseline_digest_prefix"])

    doc = {
        "workload": spec.to_doc(),
        "telemetry_off": off,
        "telemetry_on": on,
        "on_over_off": on["median_s"] / off["median_s"],
    }

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    meta = dict(_BASELINE_META)
    if RESULTS_PATH.exists():
        # Keep any hand-curated _meta across regenerations (matching the
        # BENCH_service.json convention).
        try:
            meta = json.loads(RESULTS_PATH.read_text())["_meta"]
        except (ValueError, KeyError):
            pass
    doc["_meta"] = meta
    doc["off_over_baseline"] = off["median_s"] / meta["baseline_median_s"]
    RESULTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    print(
        f"\ntelemetry off: median {off['median_s'] * 1e3:.2f} ms, "
        f"on: median {on['median_s'] * 1e3:.2f} ms "
        f"(x{doc['on_over_off']:.3f}); "
        f"off vs pre-refactor baseline x{doc['off_over_baseline']:.3f}"
        f"\n[saved to {RESULTS_PATH}]"
    )

    # Off-path must be within noise of the pre-telemetry baseline ...
    assert doc["off_over_baseline"] <= BASELINE_NOISE_FACTOR, (
        f"telemetry-off run {doc['off_over_baseline']:.2f}x the "
        f"pre-refactor baseline (band {BASELINE_NOISE_FACTOR}x)"
    )
    # ... and the gate itself may only cost a modest constant factor
    # (it adds a handful of perf_counter reads and counter increments
    # per *run*, nothing per event).
    assert doc["on_over_off"] <= 1.25, (
        f"enabling telemetry cost {doc['on_over_off']:.2f}x"
    )
