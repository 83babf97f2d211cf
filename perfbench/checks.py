"""Output checks, run outside every timed region.

* ``serve-*``: every settled job's trace digest must equal a direct
  in-process ``get_engine("fluid").run`` of the same spec.
* ``search-joint``: for each input set of the run, the whole ranked list
  (every candidate's simulated time and imbalance, as a sha256) and the
  winner's trace digest must match the record for the seed
  (``perfbench/records/``).
* ``tournament-cluster``: each input set's leaderboard fingerprint must
  match the record for the seed.

A seed without a record is checked against a recomputation on an
independent path instead: a seeded sample of candidates re-simulated on
a cold ``System`` (search), or the scalar tournament path (tournament).
Every check returns a list of failure messages; empty means correct.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Tuple

from perfbench import inputs as shapes

RECORDS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "records")

#: Candidates re-simulated when a search seed has no record.
RECHECK_SAMPLE = 32


def record_path(workload: str) -> str:
    return os.path.join(RECORDS_DIR, f"{workload}.json")


def load_record(workload: str, seed: int) -> Optional[List[dict]]:
    """The recorded outputs of each input set of ``seed``, or ``None``."""
    try:
        with open(record_path(workload), encoding="utf-8") as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None


def _by_set(outputs: List[dict], keys) -> Tuple[Dict[int, dict], List[str]]:
    """The first output of each input set, and a failure for every later
    unit of the same set whose outputs differ from it."""
    first: Dict[int, dict] = {}
    failures = []
    for i, out in enumerate(outputs):
        seen = first.setdefault(out["set"], out)
        failures += [
            f"unit {i} {key} differs from the first unit of input set {out['set']}"
            for key in keys
            if out.get(key) != seen.get(key)
        ]
    return first, failures


def check_search(seed: int, outputs: List[dict]) -> List[str]:
    keys = ("ranked_sha256", "winner_digest", "evaluations")
    firsts, failures = _by_set(outputs, keys)
    record = load_record("search-joint", seed)
    for index, first in sorted(firsts.items()):
        if record is not None:
            failures += [
                f"input set {index}: search {key} {first[key]} != recorded {record[index][key]}"
                for key in keys
                if first[key] != record[index][key]
            ]
        else:
            failures += _recheck_search(seed, index, first)
    return failures


def _recheck_search(seed: int, index: int, first: dict) -> List[str]:
    """No record for this seed: check the search's shape, re-derive the
    candidate space and re-simulate a seeded sample (plus the winner) on a
    cold System."""
    from repro.core import candidate_assignments, candidate_mappings
    from repro.machine.system import System, SystemConfig
    from repro.scenarios.engines import trace_digest
    from repro.smt.chip import ChipConfig
    from repro.workloads.generators import barrier_loop_programs

    failures: List[str] = []
    ranked = first["ranked"]
    if first["evaluations"] != shapes.SEARCH_CANDIDATES or len(ranked) != shapes.SEARCH_CANDIDATES:
        failures.append(
            f"search evaluated {first['evaluations']} candidates "
            f"({len(ranked)} ranked), expected {shapes.SEARCH_CANDIDATES}"
        )
    times = [row[2] for row in ranked]
    if times != sorted(times):
        failures.append("search ranking is not sorted by total time")
    expected = sorted(
        (
            [cpu for _r, cpu in a.mapping.rank_to_cpu],
            [p for _r, p in a.priorities],
        )
        for m in candidate_mappings(shapes.SEARCH_RANKS, shapes.SEARCH_CORES)
        for a in candidate_assignments(m, shapes.SEARCH_LEVELS, shapes.SEARCH_MAX_GAP)
    )
    if sorted((row[0], row[1]) for row in ranked) != expected:
        failures.append("search ranked a different candidate set")

    works = shapes.search_works(seed, index)
    system = System(SystemConfig(chip=ChipConfig(n_cores=shapes.SEARCH_CORES)))
    rng = random.Random(f"recheck:{seed}:{index}")
    picks = [0] + rng.sample(range(len(ranked)), min(RECHECK_SAMPLE, len(ranked)))
    for pick in picks:
        cpus, prios, time_s, imbalance = ranked[pick]
        run = system.run(
            barrier_loop_programs(works, iterations=shapes.SEARCH_ITERATIONS),
            mapping=_mapping(cpus),
            priorities=dict(enumerate(prios)),
            label="perfbench.recheck",
        )
        if (run.total_time, run.imbalance_percent) != (time_s, imbalance):
            failures.append(f"search candidate {cpus}/{prios} re-simulates differently")
        if pick == 0 and trace_digest(run) != first["winner_digest"]:
            failures.append("search winner's trace digest differs on a cold System")
    return failures


def _mapping(cpus):
    from repro.machine.mapping import ProcessMapping

    return ProcessMapping(tuple(enumerate(cpus)))


def check_tournament(seed: int, inputs: List[dict], outputs: List[dict]) -> List[str]:
    from repro.policies import TournamentConfig, run_tournament
    from repro.scenarios.engines import FluidEngine

    firsts, failures = _by_set(outputs, ("fingerprint",))
    record = load_record("tournament-cluster", seed)
    for index, first in sorted(firsts.items()):
        got = first["fingerprint"]
        if record is not None:
            expected, path = record[index]["fingerprint"], "recorded"
        else:
            config = TournamentConfig.from_doc(inputs[index]["config"])
            expected = run_tournament(config, batch=False, engine=FluidEngine()).fingerprint
            path = "scalar-path"
        if got != expected:
            failures.append(f"input set {index}: leaderboard {got} != {path} {expected}")
    return failures


def check_served(settled: Dict[str, dict]) -> List[str]:
    """``settled`` maps each job body's canonical JSON to the digests the
    server returned for it (a set: repeats must agree)."""
    from repro.scenarios import ScenarioSpec, get_engine

    engine = get_engine("fluid")
    failures: List[str] = []
    for body_json, digests in settled.items():
        spec = ScenarioSpec.from_doc(json.loads(body_json)["scenario"])
        expected = engine.run(spec).digest
        if digests != {expected}:
            failures.append(
                f"served digest(s) {sorted(digests)} for {spec.name} != direct {expected}"
            )
            if len(failures) >= 10:
                break
    return failures
