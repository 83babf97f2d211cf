"""The process under test for ``search-joint`` and ``tournament-cluster``.

Started fresh, as each ``repro search joint`` or ``repro tournament
run`` invocation is::

    python3 -m perfbench.worker '<job json>'

It imports the program and builds what one invocation builds, prints
``ready`` (the end of set-up), runs one untimed invocation, then
timed invocations — cycling through the job's input sets — until the
job's ``seconds`` have passed and at least ``min_units`` ran, and prints
one JSON line: per-invocation wall times, the outputs to check, peak
RSS, the times of the host-speed probe (``perfbench.probe``) run before
each invocation and, when traced, the spans' per-layer metrics. With
``setup_only`` it exits right after ``ready``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import time

from perfbench import inputs as shapes
from perfbench.probe import probe


class SearchProgram:
    """``joint_search`` over (mapping x priority) on a fresh 4-core System."""

    def __init__(self, job_inputs: list) -> None:
        import repro.core.search
        from repro.machine.system import System, SystemConfig
        from repro.smt.chip import ChipConfig
        from repro.workloads.generators import barrier_loop_programs

        # Looked up at call time, so a traced run reaches the wrapper.
        self._search = repro.core.search
        self._System = System
        self.config = SystemConfig(chip=ChipConfig(n_cores=shapes.SEARCH_CORES))
        self.factories = [
            functools.partial(
                barrier_loop_programs,
                [float(w) for w in one["works"]],
                iterations=shapes.SEARCH_ITERATIONS,
            )
            for one in job_inputs
        ]
        System(self.config)  # set-up ends with one System built
        self.items = shapes.SEARCH_CANDIDATES

    def unit(self, index: int):
        system = self._System(self.config)
        factory = self.factories[index]
        return factory, system, self._search.joint_search(
            system,
            factory,
            n_ranks=shapes.SEARCH_RANKS,
            n_cores=shapes.SEARCH_CORES,
            levels=shapes.SEARCH_LEVELS,
            max_gap=shapes.SEARCH_MAX_GAP,
        )

    def outputs(self, done, full: bool) -> dict:
        """The ranked list's sha256 (and the list itself when ``full``),
        plus the winner's trace digest from a re-run on the same System."""
        from repro.scenarios.engines import trace_digest

        factory, system, result = done
        ranked = ranked_rows(result)
        best = result.best
        run = system.run(
            list(factory()),
            mapping=best.mapping,
            priorities=best.priority_dict,
            label="perfbench.search.best",
        )
        out = {
            "ranked_sha256": sha256_json(ranked),
            "winner_digest": trace_digest(run),
            "evaluations": result.evaluated,
        }
        if full:
            out["ranked"] = ranked
        return out


class TournamentProgram:
    """``run_tournament`` on a fresh ``FluidEngine``."""

    def __init__(self, job_inputs: list) -> None:
        import repro.policies.tournament
        from repro.scenarios.engines import FluidEngine

        self._tournament = repro.policies.tournament
        self._Engine = FluidEngine
        self.configs = [
            self._tournament.TournamentConfig.from_doc(one["config"])
            for one in job_inputs
        ]
        FluidEngine()  # set-up ends with one engine built
        self.items = len(self.configs[0].policies) * self.configs[0].n_scenarios

    def unit(self, index: int):
        return self._tournament.run_tournament(self.configs[index], engine=self._Engine())

    @staticmethod
    def outputs(board, full: bool) -> dict:
        return {"fingerprint": board.fingerprint}


PROGRAMS = {"search-joint": SearchProgram, "tournament-cluster": TournamentProgram}


def ranked_rows(result) -> list:
    """Every candidate, best first: [cpus, priorities, time, imbalance]."""
    return [
        [
            [cpu for _rank, cpu in assignment.mapping.rank_to_cpu],
            [prio for _rank, prio in assignment.priorities],
            time_s,
            imbalance,
        ]
        for assignment, time_s, imbalance in result.entries
    ]


def sha256_json(doc: object) -> str:
    return hashlib.sha256(
        json.dumps(doc, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def run_phase(program, n_sets: int, seconds: float, min_units: int,
              tracer=None) -> tuple:
    """One untimed invocation, then timed ones until ``seconds``
    have passed and at least ``min_units`` ran; invocation ``i`` runs
    input set ``i % n_sets``.

    Returns the per-unit timings, the ``(set, result)`` of every timed
    unit, the peak RSS after the first ``n_sets`` timed units (the same
    work on every run, however fast) and the host-speed probe's time
    before each unit; only ``program.unit()`` is timed. An invocation
    that raises is reported with its error and ends the phase.
    """
    program.unit(0)
    units = []
    results = []
    probes = []
    elapsed = 0.0
    peak_rss_mb = 0.0
    while len(units) < min_units or elapsed < seconds:
        index = len(units) % n_sets
        probes.append(probe())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                done = program.unit(index)
            else:
                with tracer.span("unit", rid=f"unit-{len(units)}"):
                    done = program.unit(index)
        except Exception as exc:  # reported to the benchmark as failed work
            units.append({"seconds": time.perf_counter() - t0, "set": index,
                          "items": program.items,
                          "error": f"{type(exc).__name__}: {exc}"})
            break
        dt = time.perf_counter() - t0
        elapsed += dt
        units.append({"seconds": dt, "set": index, "items": program.items})
        results.append((index, done))
        if len(units) == n_sets:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return units, results, peak_rss_mb, probes


def outputs(program, results) -> list:
    """What each unit produced, for the checks (with full detail for the
    first unit of each input set)."""
    seen = set()
    out = []
    for index, done in results:
        one = program.outputs(done, full=index not in seen)
        one["set"] = index
        seen.add(index)
        out.append(one)
    return out


def main(argv) -> int:
    job = json.loads(argv[1])
    program = PROGRAMS[job["workload"]](job["inputs"])
    print("ready", flush=True)
    if job.get("setup_only"):
        return 0
    phase = (len(job["inputs"]), float(job["seconds"]), int(job["min_units"]))
    if not job.get("trace"):
        units, results, peak_rss_mb, probes = run_phase(program, *phase)
        report = {"units": units, "outputs": outputs(program, results),
                  "peak_rss_mb": peak_rss_mb, "probe_s": probes}
    else:
        from perfbench.layers import install, layer_metrics, memo_delta
        from perfbench.spans import Tracer

        tracer = Tracer()
        models = install(tracer)
        tracer.mark("memo", (0, 0))
        start = tracer.clock()
        units, results, peak_rss_mb, probes = run_phase(program, *phase, tracer)
        end = tracer.clock()
        tracer.mark("memo", models.totals())
        tracer.uninstall()
        report = {"units": units, "outputs": outputs(program, results),
                  "peak_rss_mb": peak_rss_mb, "probe_s": probes,
                  "layers": layer_metrics(tracer.spans,
                                          memo=memo_delta(tracer.marks, start, end))}
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
