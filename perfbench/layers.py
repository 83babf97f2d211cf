"""Which calls into ``repro`` get a span, and the per-layer metrics made
from those spans.

:func:`install` wraps the public functions of every layer the four
workloads reach; :func:`layer_metrics` turns the recorded spans into the
``per_layer`` metrics of ``BENCHMARK.json``. Each metric names the layer
(module) it measures in :data:`PER_LAYER`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.spans import Span, Tracer, self_times
from perfbench.stats import percentile

#: (name, unit, better, layer). ``perfbench/README.md`` lists, per metric,
#: the end-to-end metric and workload it should move and where it should
#: stay flat.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("server.overhead_ms", "ms", "lower", "service.server"),
    ("jobs.from_doc_us", "us", "lower", "service.jobs"),
    ("spec.from_doc_us", "us", "lower", "scenarios.spec"),
    ("spec.fingerprint_us", "us", "lower", "util.fingerprint"),
    ("spec.fingerprint_calls", "count", "lower", "util.fingerprint"),
    ("queue.wait_ms_p50", "ms", "lower", "service.queue"),
    ("queue.wait_ms_p99", "ms", "lower", "service.queue"),
    ("queue.depth_max", "count", "lower", "service.queue"),
    ("cache.claims", "count", "higher", "service.cache"),
    ("cache.hit_ratio", "ratio", "higher", "service.cache"),
    ("cache.coalesced", "count", "higher", "service.cache"),
    ("cache.claim_us", "us", "lower", "service.cache"),
    ("executor.batches", "count", "lower", "service.executor"),
    ("executor.batch_size_mean", "count", "higher", "service.executor"),
    ("executor.busy_s", "s", "lower", "service.executor"),
    ("executor.retries", "count", "lower", "service.executor"),
    ("engines.runs", "count", "higher", "scenarios.engines"),
    ("engines.run_self_s", "s", "lower", "scenarios.engines"),
    ("engines.presolve_s", "s", "lower", "scenarios.engines"),
    ("engines.digest_s", "s", "lower", "scenarios.engines"),
    ("analytic.chip_ipc_calls", "count", "lower", "smt.analytic"),
    ("analytic.chip_ipc_s", "s", "lower", "smt.analytic"),
    ("analytic.memo_lookups", "count", "lower", "smt.analytic"),
    ("analytic.memo_hit_ratio", "ratio", "higher", "smt.analytic"),
    ("analytic.stack_states", "count", "lower", "smt.analytic"),
    ("analytic.stack_s", "s", "lower", "smt.analytic"),
    ("system.builds", "count", "lower", "machine.system"),
    ("system.build_s", "s", "lower", "machine.system"),
    ("system.machine_build_s", "s", "lower", "machine.system"),
    ("system.run_mean_ms", "ms", "lower", "machine.system"),
    ("cluster.run_s", "s", "lower", "cluster.system"),
    ("cluster.run_mean_ms", "ms", "lower", "cluster.system"),
    ("runtime.init_s", "s", "lower", "mpi.runtime"),
    ("runtime.loop_self_s", "s", "lower", "mpi.runtime"),
    ("runtime.events", "count", "lower", "mpi.runtime"),
    ("runtime.events_per_s", "1/s", "higher", "mpi.runtime"),
    ("stats.compute_s", "s", "lower", "trace.stats"),
    ("run.stats_digest_pct", "%", "lower", "trace.stats + scenarios.engines"),
    ("hmt.set_priority_calls", "count", "lower", "kernel.hmt"),
    ("hmt.set_priority_s", "s", "lower", "kernel.hmt"),
    ("hmt.set_priority_pct", "%", "lower", "kernel.hmt"),
    ("search.generate_s", "s", "lower", "core.search"),
    ("search.evaluations", "count", "higher", "core.search"),
    ("policies.apply_calls", "count", "higher", "policies"),
    ("policies.apply_s", "s", "lower", "policies"),
    ("policies.corpus_s", "s", "lower", "policies"),
    ("cluster.placements_s", "s", "lower", "core.search (placement)"),
    ("trace.spans", "count", "lower", "benchmark tracer"),
    ("trace.overhead_pct", "%", "lower", "benchmark tracer"),
)

# -- installing the wrappers ---------------------------------------------------------


class ModelRegistry:
    """Every analytic model built while traced, for memo accounting."""

    def __init__(self) -> None:
        self._models: list = []
        self._lock = threading.Lock()

    def add(self, model) -> None:
        with self._lock:
            self._models.append(model)

    def totals(self) -> Tuple[int, int]:
        """Summed (hits, misses) of every registered model's memo caches."""
        with self._lock:
            models = list(self._models)
        hits = misses = 0
        for model in models:
            stats = model.cache_stats()
            hits += stats.hits
            misses += stats.misses
        return hits, misses


def install(tracer: Tracer) -> ModelRegistry:
    """Wrap the public calls of every traced layer; returns the model
    registry the ``memo`` marks read from."""
    import repro.core.search as search
    import repro.mpi.runtime as runtime
    import repro.policies.tournament as tournament
    import repro.policies.zoo as zoo
    import repro.scenarios.engines as engines
    import repro.scenarios.spec as spec_mod
    import repro.service.executor as executor
    import repro.service.jobs as jobs
    import repro.service.server as server
    from repro.cluster.system import ClusterSystem
    from repro.kernel.hmt import HmtController
    from repro.machine.system import System
    from repro.service.cache import ResultCache
    from repro.service.queue import JobQueue
    from repro.smt.analytic import AnalyticThroughputModel

    models = ModelRegistry()
    w = tracer.wrap

    # service.server: one root span per HTTP request; the memo totals are
    # marked on every /healthz so a client can bracket its window.
    make_handler = server._make_handler

    def traced_make_handler(service, quiet=True):
        handler = make_handler(service, quiet)

        def note_get(args, _result):
            if args[0].path.startswith("/healthz"):
                tracer.mark("memo", models.totals())

        w(handler, "do_POST", "server.post")
        w(handler, "do_GET", "server.get", note=note_get)
        return handler

    tracer.replace(server, "_make_handler", traced_make_handler)

    # service.jobs / scenarios.spec / util.fingerprint
    w(jobs.JobSpec, "from_doc", "jobs.from_doc")
    w(spec_mod.ScenarioSpec, "from_doc", "spec.from_doc")
    w(jobs, "fingerprint_doc", "fingerprint.doc")
    w(spec_mod, "fingerprint_doc", "fingerprint.doc")

    # service.executor: submission names the request; workers' dispatches
    # are root spans carrying the job id.
    def note_submit(_args, job):
        tracer.set_request(job.id)

    w(executor.ScenarioService, "submit", "executor.submit", note=note_submit)
    w(executor.ScenarioService, "_process", "executor.process",
      rid_of=lambda a: a[1].id)
    w(executor.ScenarioService, "_process_batch", "executor.process_batch",
      rid_of=lambda a: a[1][0].id, note=lambda a, _r: len(a[1]))
    w(executor, "execute_spec", "executor.execute", note=lambda a, _r: 1)
    w(executor, "execute_spec_batch", "executor.execute",
      note=lambda a, _r: len(a[0]))
    w(executor.ScenarioService, "_bounded_backoff", "executor.retry")

    # service.queue: each job taken off the queue gets a wait span from
    # its submission (the job's own monotonic stamp) to the take.
    def note_got(_args, result):
        now, now_mono = tracer.clock(), time.monotonic()
        for job in result if isinstance(result, list) else [result]:
            if job is not None:
                waited = now_mono - job.submitted_mono
                tracer.record("queue.wait", now - waited, now, rid=job.id)

    w(JobQueue, "put", "queue.put", note=lambda a, _r: a[0].depth())
    w(JobQueue, "get", "queue.get", note=note_got)
    w(JobQueue, "get_batch", "queue.get_batch", note=note_got)

    # service.cache: the claim's role ("cache", "follower" or "leader").
    w(ResultCache, "claim", "cache.claim", note=lambda _a, r: r[0])

    # scenarios.engines
    w(engines.FluidEngine, "run", "engines.run")
    w(engines.FluidEngine, "run_batch", "engines.run_batch")
    w(engines, "trace_digest", "engines.digest")

    # smt.analytic
    def note_model(args, _result):
        models.add(args[0])

    w(AnalyticThroughputModel, "__init__", "analytic.init", note=note_model)
    w(AnalyticThroughputModel, "chip_ipc", "analytic.chip_ipc")
    w(AnalyticThroughputModel, "chip_ipc_stack", "analytic.stack",
      note=lambda _a, r: len(r))

    # machine.system / cluster.system
    w(System, "__init__", "system.init")
    w(System, "run", "system.run")
    w(ClusterSystem, "__init__", "system.init")
    w(ClusterSystem, "run", "cluster.run")

    # mpi.runtime / trace.stats / kernel.hmt
    w(runtime.MpiRuntime, "__init__", "runtime.init")
    w(runtime.MpiRuntime, "run", "runtime.run",
      note=lambda a, _r: a[0].events_processed)
    w(runtime, "compute_stats", "stats.compute")
    w(HmtController, "set_priority", "hmt.set_priority")

    # core.search
    w(search, "candidate_mappings", "search.generate")
    w(search, "candidate_assignments", "search.generate")
    w(search, "joint_search", "search.joint",
      note=lambda _a, r: r.stats.evaluations if r.stats else len(r.entries))

    # policies (+ the placement axis they plan on)
    w(tournament, "tournament_corpus", "policies.corpus")
    w(tournament, "apply_policy", "policies.apply")
    w(zoo, "candidate_placements", "cluster.placements")
    return models


# -- metrics from spans --------------------------------------------------------------


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans: Iterable[Span],
    memo: Tuple[int, int] = (0, 0),
    overhead_ms: Sequence[float] = (),
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced window's spans, but
    ``trace.overhead_pct``, which needs the untraced run.

    ``memo`` is the (hits, misses) delta of the analytic memo caches over
    the window; ``overhead_ms`` the client-side ``server.overhead_ms``
    samples. A layer the workload never reaches reports 0.
    """
    spans = list(spans)
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(selfs[s.sid] for s in by_name.get(name, ()))

    def mean_us(name: str) -> float:
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    waits = [(s.end - s.start) * 1e3 for s in by_name.get("queue.wait", ())]
    claims = [s.attr for s in by_name.get("cache.claim", ())]
    dispatches = [s for s in by_name.get("executor.execute", ())]
    busy = sum(
        s.end - s.start
        for name in ("executor.process", "executor.process_batch")
        for s in by_name.get(name, ())
        if s.parent is None
    )
    batch_runs = sum(
        s.end - s.start
        for batch in by_name.get("engines.run_batch", ())
        for s in by_name.get("engines.run", ())
        if s.parent == batch.sid
    )
    events = sum(s.attr or 0 for s in by_name.get("runtime.run", ()))
    runtime_s = total("runtime.run")
    hits, misses = memo

    # The outermost simulated runs: engine runs where an engine is used,
    # else the direct System/ClusterSystem runs of a search.
    outer = total("engines.run") or (total("system.run") + total("cluster.run"))
    share = (lambda part: part / outer * 100.0) if outer else (lambda _p: 0.0)

    return {
        "server.overhead_ms": percentile(overhead_ms, 50) if overhead_ms else 0.0,
        "jobs.from_doc_us": mean_us("jobs.from_doc"),
        "spec.from_doc_us": mean_us("spec.from_doc"),
        "spec.fingerprint_us": mean_us("fingerprint.doc"),
        "spec.fingerprint_calls": calls("fingerprint.doc"),
        "queue.wait_ms_p50": percentile(waits, 50) if waits else 0.0,
        "queue.wait_ms_p99": percentile(waits, 99) if waits else 0.0,
        "queue.depth_max": max((s.attr for s in by_name.get("queue.put", ())),
                               default=0),
        "cache.claims": len(claims),
        "cache.hit_ratio": claims.count("cache") / len(claims) if claims else 0.0,
        "cache.coalesced": claims.count("follower"),
        "cache.claim_us": mean_us("cache.claim"),
        "executor.batches": len(dispatches),
        "executor.batch_size_mean": _mean([s.attr for s in dispatches]),
        "executor.busy_s": busy,
        "executor.retries": calls("executor.retry"),
        "engines.runs": calls("engines.run"),
        "engines.run_self_s": self_total("engines.run"),
        "engines.presolve_s": total("engines.run_batch") - batch_runs,
        "engines.digest_s": total("engines.digest"),
        "analytic.chip_ipc_calls": calls("analytic.chip_ipc"),
        "analytic.chip_ipc_s": total("analytic.chip_ipc"),
        "analytic.memo_lookups": hits + misses,
        "analytic.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "analytic.stack_states": sum(s.attr or 0 for s in by_name.get("analytic.stack", ())),
        "analytic.stack_s": total("analytic.stack"),
        "system.builds": calls("system.init"),
        "system.build_s": total("system.init"),
        "system.machine_build_s": self_total("system.run"),
        "system.run_mean_ms": total("system.run") / calls("system.run") * 1e3
        if calls("system.run") else 0.0,
        "cluster.run_s": self_total("cluster.run"),
        "cluster.run_mean_ms": total("cluster.run") / calls("cluster.run") * 1e3
        if calls("cluster.run") else 0.0,
        "runtime.init_s": total("runtime.init"),
        "runtime.loop_self_s": self_total("runtime.run"),
        "runtime.events": events,
        "runtime.events_per_s": events / runtime_s if runtime_s else 0.0,
        "stats.compute_s": total("stats.compute"),
        "run.stats_digest_pct": share(total("stats.compute") + total("engines.digest")),
        "hmt.set_priority_calls": calls("hmt.set_priority"),
        "hmt.set_priority_s": total("hmt.set_priority"),
        "hmt.set_priority_pct": share(total("hmt.set_priority")),
        "search.generate_s": total("search.generate"),
        "search.evaluations": sum(s.attr or 0 for s in by_name.get("search.joint", ())),
        "policies.apply_calls": calls("policies.apply"),
        "policies.apply_s": total("policies.apply"),
        "policies.corpus_s": total("policies.corpus"),
        "cluster.placements_s": total("cluster.placements"),
        "trace.spans": len(spans),
    }


def in_window(spans: Iterable[Span], start: float, end: float) -> List[Span]:
    """Spans that began inside ``[start, end]``."""
    return [s for s in spans if start <= s.start <= end]


def memo_delta(marks: Sequence[Tuple[float, str, object]], start: float,
               end: float) -> Tuple[int, int]:
    """(hits, misses) between the last ``memo`` mark at or before ``start``
    and the first at or after ``end``."""
    memo = [(t, v) for t, label, v in marks if label == "memo"]
    before = [v for t, v in memo if t <= start]
    after = [v for t, v in memo if t >= end]
    if not before or not after:
        return 0, 0
    (h0, m0), (h1, m1) = before[-1], after[0]
    return h1 - h0, m1 - m0
