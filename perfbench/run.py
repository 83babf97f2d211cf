"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads: ``serve-interactive``,
``serve-bulk``, ``search-joint``, ``tournament-cluster``. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (and the tracing overhead against an untraced run of the
same length). Outputs are checked outside the timed regions; a failed
check makes the exit code non-zero. Spans of traced runs go to
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", ".out")

WORKLOADS = ("serve-interactive", "serve-bulk", "search-joint", "tournament-cluster")

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 9

#: A worker still running after this long is killed (a run must end
#: within 180 s, traced runs included).
WORKER_TIMEOUT_S = 150.0

#: Tail percentile of each workload, fixed in advance so every run
#: reports the same one; a run keeps measuring until >= 10 samples lie
#: beyond it.
TAIL = {"serve-interactive": 99.0, "serve-bulk": 90.0,
        "search-joint": 75.0, "tournament-cluster": 75.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


# -- workers: search-joint, tournament-cluster ---------------------------------------


def _spawn_worker(job: dict) -> tuple:
    """Start ``perfbench.worker``; returns (process, seconds to ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", json.dumps(job)],
        cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready_s


def _run_worker_process(job: dict) -> tuple:
    """One worker process to completion; returns (report, set-up seconds)."""
    proc, ready_s = _spawn_worker(job)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), ready_s


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One worker process runs timed invocations, cycling through the
    seed's input sets, until ``seconds`` have passed and the tail
    percentile has enough samples; more processes are started only to
    time set-up."""
    from perfbench import checks
    from perfbench.inputs import program_inputs
    from perfbench.probe import local_scales, probe
    from perfbench.stats import min_samples_for

    job = {"workload": workload, "inputs": program_inputs(workload, seed),
           "seconds": seconds, "min_units": min_samples_for(TAIL[workload]),
           "trace": False}
    probes = [probe()]
    report, ready_s = _run_worker_process(job)
    setups = [ready_s]
    while not trace and len(setups) < SETUP_REPEATS:
        probes.append(probe())
        proc, ready_s = _spawn_worker(dict(job, setup_only=True))
        proc.communicate()
        setups.append(ready_s)
    phases = [("untraced", report)]
    if trace:
        traced, _ = _run_worker_process(dict(
            job, trace=True,
            spans_path=os.path.join(OUT_DIR, f"{workload}.spans.jsonl")))
        phases.append(("traced", traced))

    failures = []
    for name, one in phases:
        errors = [u["error"] for u in one["units"] if "error" in u]
        if errors:
            failures += [f"{name}: {e}" for e in errors]
        elif workload == "search-joint":
            failures += [f"{name}: {f}" for f in checks.check_search(seed, one["outputs"])]
        else:
            failures += [f"{name}: {f}" for f in checks.check_tournament(
                seed, job["inputs"], one["outputs"])]

    def scaled(one):
        """Unit times at the reference host speed (each by the probes
        around it), and the rate of work they give."""
        factors = local_scales(one["probe_s"])
        unit_s = [u["seconds"] * f for u, f in zip(one["units"], factors)]
        done = sum(u["items"] for u in one["units"] if "error" not in u)
        return unit_s, done / sum(unit_s)

    units = report["units"]
    unit_s, throughput = scaled(report)
    out = {
        "items": sum(u["items"] for u in units),
        "failed": sum(u["items"] for u in units if "error" in u),
        "failures": failures,
        "setups": setups,
        "latencies_ms": [s * 1e3 for s in unit_s],
        "throughput": throughput,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_probe_s": probes,
        "probe_s": probes + report["probe_s"],
    }
    if trace:
        out["layers"] = traced["layers"]
        out["traced_throughput"] = scaled(traced)[1]
    return out


# -- servers: serve-interactive, serve-bulk ------------------------------------------


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import checks, serve
    from perfbench.inputs import REPEAT_SHARE, JobStream
    from perfbench.probe import probe
    from perfbench.stats import min_samples_for

    bulk = workload == "serve-bulk"
    min_requests = min_samples_for(TAIL[workload])
    # The server, its clients and the probe share one CPU (the server
    # inherits this process's affinity). Unpinned, the server's and the
    # clients' threads spread over two CPUs, the probe runs on one, and
    # CPU time the host steals from either slows the server more than
    # the probe, so the probe could not bring its times to one speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def stream() -> JobStream:
        if bulk:
            return JobStream(seed, lane="batch")
        return JobStream(seed, lane="interactive", repeat_share=REPEAT_SHARE)

    setups, probes = [], []
    for _ in range(SETUP_REPEATS - 1 if not trace else 0):
        probes.append(probe())
        server = serve.Server(ROOT, _env())
        setups.append(server.setup_s)
        server.stop()
    probes.append(probe())
    server = serve.Server(ROOT, _env())
    setups.append(server.setup_s)
    try:
        warm, measured = serve.drive(server, stream(), bulk, seconds, min_requests)
    finally:
        server.stop()
    latencies, throughput = measured.scaled()
    out = {
        "items": measured.outcomes.attempted,
        "failed": measured.outcomes.failed,
        "reasons": measured.outcomes.reasons,
        "setups": setups,
        "latencies_ms": latencies,
        "throughput": throughput,
        "peak_rss_mb": measured.peak_rss_mb,
        "setup_probe_s": probes,
        "probe_s": probes + measured.probe_s,
    }
    checked = [warm, measured]
    if trace:
        from perfbench.layers import in_window, layer_metrics, memo_delta
        from perfbench.spans import Span

        spans_path = os.path.join(OUT_DIR, f"{workload}.spans.jsonl")
        server = serve.Server(ROOT, _env(), spans_path=spans_path)
        try:
            warm, traced = serve.drive(server, stream(), bulk, seconds, min_requests)
        finally:
            server.stop()
        with open(spans_path, encoding="utf-8") as fh:
            marks = json.loads(fh.readline())["marks"]
            spans = [Span(*json.loads(line)) for line in fh]
        start, end = traced.start, traced.end
        out["traced_throughput"] = traced.scaled()[1]
        out["layers"] = layer_metrics(
            in_window(spans, start, end),
            memo=memo_delta(marks, start, end),
            overhead_ms=traced.overhead_ms,
        )
        checked = [warm, traced]
    settled = {}
    for phase in checked:
        for body, digests in phase.settled.items():
            settled.setdefault(body, set()).update(digests)
    out["failures"] = checks.check_served(settled)
    return out


# -- main ----------------------------------------------------------------------------


def _end_to_end(workload: str, result: dict) -> dict:
    """Latencies and rates come at the reference host speed from the
    workload; set-up is brought there by the probes run right before
    each process start (``perfbench/probe.py``)."""
    from perfbench.probe import scale
    from perfbench.stats import median, tail_percentile

    latencies = result["latencies_ms"]
    found = tail_percentile(latencies, (TAIL[workload],))
    if found is None:
        raise RuntimeError(f"too few latency samples ({len(latencies)}) "
                           f"for p{TAIL[workload]:g}")
    tail = found[1]
    return {
        "setup_s": median(result["setups"]) * scale(result["setup_probe_s"]),
        "throughput_per_s": result["throughput"],
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _per_layer(result: dict) -> dict:
    """The traced run's layer metrics plus the tracing overhead: how much
    higher the untraced throughput was, in percent, each at the reference
    host speed."""
    layers = dict(result["layers"])
    layers["trace.overhead_pct"] = (
        result["throughput"] / result["traced_throughput"] - 1.0
    ) * 100.0
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              "(run from a full checkout of the repository)", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    os.makedirs(OUT_DIR, exist_ok=True)

    trace = bool(args.trace)
    if args.workload.startswith("serve-"):
        result = run_serve(args.workload, args.seed, args.seconds, trace)
    else:
        result = run_worker(args.workload, args.seed, args.seconds, trace)

    if trace:
        from perfbench.layers import PER_LAYER

        values = _per_layer(result)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        values = _end_to_end(args.workload, result)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    _report(args.workload, result, metrics)
    failures = result["failures"]
    print(json.dumps({
        "correct": not failures,
        "attempted": result["items"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 1 if failures else 0


def _report(workload: str, result: dict, metrics: dict) -> None:
    """Human-readable lines before the JSON: sample counts and checks."""
    n_lat = len(result["latencies_ms"])
    samples = {"setup_s": len(result["setups"]), "latency_p50_ms": n_lat,
               "latency_tail_ms": n_lat}
    tail = TAIL[workload]
    for name, metric in metrics.items():
        extra = ""
        if name in samples:
            extra = f"  (n={samples[name]})"
        if name == "latency_tail_ms":
            extra = f"  (p{tail:g}, n={n_lat})"
        print(f"{workload}  {name:<26} {metric['value']:>14.6g} {metric['unit']}{extra}")
    from perfbench.probe import REFERENCE_S, scale
    from perfbench.stats import median

    probes = result["probe_s"]
    print(f"{workload}  times scaled by ~{scale(probes):.4f} to the reference host speed"
          f"  (probe median {median(probes) * 1e3:.3f} ms vs {REFERENCE_S * 1e3:g} ms,"
          f" n={len(probes)})")
    attempted, failed = result["items"], result["failed"]
    print(f"{workload}  failed_ratio               {failed / attempted if attempted else 0.0:>14.6g}"
          f"  ({failed}/{attempted})")
    for reason in result.get("reasons", ())[:5]:
        print(f"{workload}  failure: {reason}")
    if result["failures"]:
        for failure in result["failures"]:
            print(f"{workload}  CHECK FAILED: {failure}")
    else:
        print(f"{workload}  outputs checked: ok")


if __name__ == "__main__":
    sys.exit(main())
