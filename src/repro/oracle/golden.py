"""Golden-trace snapshots: recorded physics future PRs are diffed against.

A golden file under ``tests/golden/`` pins one
:class:`~repro.scenarios.ScenarioSpec` to the
exact physics the simulator produced when the file was recorded: the
sha256 digest of the full-precision trace interval stream, the paper's
two metrics, the per-rank state breakdown, and the scenario's own
fingerprint (so a file can never be replayed against a silently edited
scenario). ``repro oracle check`` re-runs every scenario and compares —
bit-exactly on the digest by default (the simulator is deterministic:
``tests/integration/test_determinism.py``), or within ``--tolerance`` on
the scalar metrics for cross-platform runs.

The snapshot format is versioned; bump :data:`GOLDEN_VERSION` when an
*intentional* physics change lands and re-record with ``repro oracle
record`` in the same PR, so the diff shows exactly which numbers moved.

The same directory also pins one tournament
:class:`~repro.policies.Leaderboard` (the smoke config over both policy
families): :func:`check_leaderboard` re-runs it and compares canonical
fingerprints, golden-replaying the whole policy subsystem the way a
trace digest golden-replays one scenario. And it pins one joint
(mapping × priority) :class:`~repro.core.SearchResult`
(``joint-search.search.json`` — deliberately *not* ``*.golden.json``,
which is reserved for single-trace snapshots): the recorded winner's
mapping, priorities, time and trace digest, replayed by re-running the
whole symmetry-pruned search (:func:`check_joint_search`).
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import GoldenMismatchError, OracleError, PersistenceError
from repro.mpi.runtime import RunResult
from repro.policies import Leaderboard, TournamentConfig, run_tournament
from repro.scenarios import ScenarioSpec, get_engine, trace_digest

__all__ = [
    "GOLDEN_FORMAT",
    "GOLDEN_VERSION",
    "GoldenCheck",
    "JOINT_SEARCH_GOLDEN_BASENAME",
    "JointSearchCheck",
    "LEADERBOARD_GOLDEN_BASENAME",
    "LeaderboardCheck",
    "default_scenarios",
    "joint_search_scenario",
    "smoke_tournament_config",
    "snapshot",
    "record",
    "record_all",
    "record_joint_search",
    "record_leaderboard",
    "check",
    "check_all",
    "check_all_batch",
    "check_joint_search",
    "check_leaderboard",
    "golden_paths",
    "joint_search_path",
    "leaderboard_path",
]

GOLDEN_FORMAT = "repro-golden-trace"
#: v2: the analytic model's core memo keys carry *exact* external
#: traffic (they used to round to 1e-4), making the model a pure
#: function of its query. Converged values moved in the ~8th decimal
#: for scenarios with nonzero cross-core traffic; re-recorded in the
#: same PR that introduced the batch execution path, which relies on
#: the history-independence the exact keys provide.
GOLDEN_VERSION = 2


def default_scenarios() -> List[ScenarioSpec]:
    """The canonical recorded set: one per workload family, covering the
    identity and paper mappings and a static priority assignment."""
    return [
        ScenarioSpec(
            name="barrier-skewed",
            kind="barrier_loop",
            works=(1.0e9, 3.0e9, 2.0e9, 4.0e9),
            iterations=3,
        ),
        ScenarioSpec(
            name="metbench-prio",
            kind="metbench",
            works=(8.0e8, 2.4e9, 1.2e9, 2.4e9),
            iterations=3,
            priorities=((0, 4), (1, 6), (2, 4), (3, 6)),
        ),
        ScenarioSpec(
            name="btmz-paper-mapping",
            kind="btmz",
            works=(6.0e8, 1.1e9, 1.9e9, 3.4e9),
            iterations=2,
            mapping="btmz",
            priorities=((0, 4), (1, 4), (2, 5), (3, 6)),
        ),
        # The one topology-bearing (spec v3) recording: 8 ranks on two
        # nodes joined by a two-level tree forced onto separate switches
        # (nodes_per_switch=1), so every distant-pair exchange crosses
        # the far link. Pins the whole cluster path — TopologySpec wire
        # format, ClusterSystem cross-node costs, per-node priority
        # arbitration — to exact physics.
        ScenarioSpec(
            name="cluster-distant-pairs",
            kind="distant_pairs",
            works=(1.0e9, 2.6e9, 1.4e9, 3.0e9, 1.8e9, 2.2e9, 1.2e9, 2.8e9),
            iterations=2,
            priorities=((1, 6), (3, 6), (7, 5)),
            topology={"n_nodes": 2, "network": "two-level-tree",
                      "params": {"nodes_per_switch": 1}},
        ),
    ]


def _replay(scenario: ScenarioSpec) -> RunResult:
    """One recording/replay path: the fluid engine with live invariant
    checking, labelled exactly as the oracle always labelled it (labels
    do not enter the digest, but keep logs continuous)."""
    return get_engine("fluid").run(
        scenario,
        label=f"oracle.{scenario.name}",
        options={"check_invariants": True},
    ).run


def snapshot(scenario: ScenarioSpec, result: RunResult) -> dict:
    """The JSON document pinning ``result``'s physics to ``scenario``."""
    return {
        "format": GOLDEN_FORMAT,
        "version": GOLDEN_VERSION,
        "scenario": scenario.to_doc(),
        "scenario_fingerprint": scenario.fingerprint,
        "trace_digest": trace_digest(result),
        "total_time": result.total_time,
        "imbalance_percent": result.imbalance_percent,
        "events_processed": result.events_processed,
        "final_priorities": [int(p) for p in result.final_priorities],
        "ranks": [
            {
                "rank": r.rank,
                "compute": r.compute_fraction,
                "sync": r.sync_fraction,
                "comm": r.comm_fraction,
                "noise": r.noise_fraction,
                "idle": r.idle_fraction,
            }
            for r in result.stats.ranks
        ],
    }


def _golden_path(directory: str, scenario: ScenarioSpec) -> str:
    return os.path.join(directory, f"{scenario.name}.golden.json")


def record(scenario: ScenarioSpec, path: str) -> dict:
    """Run ``scenario`` fresh (fluid engine, live invariant checking)
    and write its snapshot to ``path``."""
    result = _replay(scenario)
    doc = snapshot(scenario, result)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return doc


def record_all(directory: str) -> List[str]:
    """Record every default scenario into ``directory`` plus the golden
    tournament leaderboard; returns paths."""
    paths = []
    for scenario in default_scenarios():
        path = _golden_path(directory, scenario)
        record(scenario, path)
        paths.append(path)
    paths.append(record_leaderboard(directory))
    paths.append(record_joint_search(directory))
    return paths


def golden_paths(directory: str) -> List[str]:
    """All golden files under ``directory``, sorted."""
    return sorted(glob.glob(os.path.join(directory, "*.golden.json")))


@dataclass(frozen=True)
class GoldenCheck:
    """One golden file's replay outcome."""

    path: str
    scenario: ScenarioSpec
    digest_equal: bool
    recorded_time: float
    replayed_time: float
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise OracleError(f"no golden file at {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise OracleError(f"unreadable golden file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != GOLDEN_FORMAT:
        raise OracleError(f"{path} is not a golden-trace file")
    if doc.get("version") != GOLDEN_VERSION:
        raise OracleError(
            f"{path}: golden version {doc.get('version')!r} != "
            f"{GOLDEN_VERSION}; re-record with `repro oracle record`"
        )
    return doc


def _compare(
    path: str,
    doc: dict,
    scenario: ScenarioSpec,
    result: RunResult,
    tolerance: float = 0.0,
    strict: bool = True,
) -> GoldenCheck:
    """Compare one replayed run against its recorded snapshot."""
    mismatches: List[str] = []

    if scenario.fingerprint != doc.get("scenario_fingerprint"):
        mismatches.append(
            "scenario fingerprint drifted — the embedded scenario was "
            "edited after recording; re-record instead of editing"
        )

    digest = trace_digest(result)
    digest_equal = digest == doc.get("trace_digest")
    if not digest_equal and tolerance <= 0.0:
        mismatches.append(
            f"trace digest {digest[:16]}... != recorded "
            f"{str(doc.get('trace_digest'))[:16]}..."
        )

    def drifted(label: str, got: float, want: float) -> None:
        tol = max(tolerance, 0.0)
        if not math.isclose(got, want, rel_tol=max(tol, 1e-12), abs_tol=tol):
            mismatches.append(f"{label}: replayed {got!r} vs recorded {want!r}")

    drifted("total_time", result.total_time, float(doc["total_time"]))
    drifted(
        "imbalance_percent",
        result.imbalance_percent,
        float(doc["imbalance_percent"]),
    )
    recorded_ranks = {int(r["rank"]): r for r in doc.get("ranks", ())}
    for r in result.stats.ranks:
        want = recorded_ranks.get(r.rank)
        if want is None:
            mismatches.append(f"rank {r.rank} missing from the recording")
            continue
        drifted(f"rank {r.rank} compute", r.compute_fraction, float(want["compute"]))
        drifted(f"rank {r.rank} sync", r.sync_fraction, float(want["sync"]))
    if tuple(int(p) for p in result.final_priorities) != tuple(
        int(p) for p in doc.get("final_priorities", ())
    ):
        mismatches.append(
            f"final priorities {result.final_priorities} != recorded "
            f"{tuple(doc.get('final_priorities', ()))}"
        )

    outcome = GoldenCheck(
        path=path,
        scenario=scenario,
        digest_equal=digest_equal,
        recorded_time=float(doc["total_time"]),
        replayed_time=result.total_time,
        mismatches=tuple(mismatches),
    )
    if strict and not outcome.ok:
        raise GoldenMismatchError(
            f"{path}: " + "; ".join(outcome.mismatches)
        )
    return outcome


def check(path: str, tolerance: float = 0.0, strict: bool = True) -> GoldenCheck:
    """Replay the golden file's scenario and compare against the record.

    ``tolerance`` is a relative band on the scalar metrics; with the
    default 0.0 the trace digest must match bit-exactly (same-platform
    CI). With a positive tolerance the digest difference is reported but
    only tolerance-exceeding metric drift is a mismatch. ``strict=True``
    raises :class:`~repro.errors.GoldenMismatchError` on any mismatch.
    """
    doc = _load_doc(path)
    scenario = ScenarioSpec.from_doc(doc["scenario"])
    result = _replay(scenario)
    return _compare(
        path, doc, scenario, result, tolerance=tolerance, strict=strict
    )


def check_all(
    directory: str, tolerance: float = 0.0, strict: bool = True
) -> List[GoldenCheck]:
    """Replay every golden file under ``directory``."""
    paths = golden_paths(directory)
    if not paths:
        raise OracleError(f"no *.golden.json files under {directory}")
    return [check(p, tolerance=tolerance, strict=strict) for p in paths]


def check_all_batch(
    directory: str, tolerance: float = 0.0, strict: bool = True
) -> List[GoldenCheck]:
    """Replay every golden file through the fluid engine's *batch* path.

    All recorded scenarios go through one ``run_batch`` call (per-spec
    event loops on one engine's shared warm ``System``) and each result
    is compared against its recording exactly like :func:`check` — the
    batch-path twin of the scalar replay, guarding against a digest
    that depends on what ran earlier in the batch.
    """
    paths = golden_paths(directory)
    if not paths:
        raise OracleError(f"no *.golden.json files under {directory}")
    docs = [_load_doc(p) for p in paths]
    scenarios = [ScenarioSpec.from_doc(d["scenario"]) for d in docs]
    results = get_engine("fluid").run_batch(
        scenarios,
        labels=[f"oracle.{s.name}" for s in scenarios],
        options={"check_invariants": True},
    )
    return [
        _compare(
            path, doc, scenario, result.run,
            tolerance=tolerance, strict=strict,
        )
        for path, doc, scenario, result in zip(
            paths, docs, scenarios, results
        )
    ]


# -- the golden tournament leaderboard -----------------------------------------

#: The one leaderboard artifact ``record_all`` pins next to the traces.
LEADERBOARD_GOLDEN_BASENAME = "tournament-smoke.leaderboard.json"


def smoke_tournament_config() -> TournamentConfig:
    """The recorded tournament: small enough for CI, wide enough to
    cover both policy families and both corpus cell kinds."""
    return TournamentConfig(
        policies=("st", "paper-c", "propshare", "hysteresis"),
        corpus="mixed",
        n_scenarios=6,
        seed=2008,
    )


def leaderboard_path(directory: str) -> str:
    return os.path.join(directory, LEADERBOARD_GOLDEN_BASENAME)


def record_leaderboard(directory: str) -> str:
    """Run the smoke tournament fresh and write its artifact."""
    board = run_tournament(smoke_tournament_config())
    return board.save(leaderboard_path(directory))


@dataclass(frozen=True)
class LeaderboardCheck:
    """The golden leaderboard's replay outcome."""

    path: str
    recorded_fingerprint: str
    replayed_fingerprint: str

    @property
    def ok(self) -> bool:
        return self.recorded_fingerprint == self.replayed_fingerprint


def check_leaderboard(directory: str, strict: bool = True) -> LeaderboardCheck:
    """Re-run the recorded leaderboard's config and compare fingerprints.

    The whole comparison is one fingerprint equality: the canonical
    leaderboard document covers the corpus (scenario fingerprints), the
    per-cell total times and every aggregate, so any drift in corpus
    drawing, policy planning or engine physics shows up here. The
    artifact's own embedded fingerprint is verified on load, so a
    hand-edited recording fails before it is ever replayed.
    """
    path = leaderboard_path(directory)
    try:
        recorded = Leaderboard.load(path)
    except PersistenceError as exc:
        raise OracleError(str(exc)) from exc
    replayed = run_tournament(recorded.config)
    outcome = LeaderboardCheck(
        path=path,
        recorded_fingerprint=recorded.fingerprint,
        replayed_fingerprint=replayed.fingerprint,
    )
    if strict and not outcome.ok:
        raise GoldenMismatchError(
            f"{path}: leaderboard fingerprint "
            f"{outcome.replayed_fingerprint[:16]}... != recorded "
            f"{outcome.recorded_fingerprint[:16]}...; the tournament is "
            "no longer reproducing the recorded outcome — re-record with "
            "`repro oracle record` if the change is intentional"
        )
    return outcome


# -- the golden joint search ----------------------------------------------------

#: The pinned joint-search result. The suffix is deliberately NOT
#: ``.golden.json``: that glob is the single-trace snapshot contract
#: (``golden_paths``), and a search recording has a different shape.
JOINT_SEARCH_GOLDEN_BASENAME = "joint-search.search.json"

JOINT_SEARCH_FORMAT = "repro-golden-joint-search"
JOINT_SEARCH_VERSION = 1

#: The recorded search's knobs: 3 levels × |gap| ≤ 2 per core and the
#: symmetry-pruned 4-rank mapping axis (24 → 3 classes), 243 candidates.
_JOINT_LEVELS = (4, 5, 6)
_JOINT_MAX_GAP = 2


def joint_search_scenario() -> ScenarioSpec:
    """The workload the golden joint search optimises: a skewed 4-rank
    MetBench run where both the pairing and the priorities matter."""
    return ScenarioSpec(
        name="joint-smoke",
        kind="metbench",
        works=(8.0e8, 2.4e9, 1.2e9, 2.0e9),
        iterations=2,
    )


def joint_search_path(directory: str) -> str:
    return os.path.join(directory, JOINT_SEARCH_GOLDEN_BASENAME)


def _run_joint_search(scenario: ScenarioSpec):
    """One recording/replay path: a fresh System, the symmetry-pruned
    joint search, and the winner re-run once for its trace digest."""
    from repro.core import joint_search
    from repro.machine.system import System, SystemConfig

    system = System(SystemConfig(seed=scenario.seed))
    result = joint_search(
        system,
        scenario.programs,
        n_ranks=scenario.n_ranks,
        levels=_JOINT_LEVELS,
        max_gap=_JOINT_MAX_GAP,
        keep_top=1,
    )
    best = result.best
    run = system.run(
        list(scenario.programs()),
        mapping=best.mapping,
        priorities=best.priority_dict,
        label=f"oracle.joint.{scenario.name}",
    )
    return result, trace_digest(run)


def record_joint_search(directory: str) -> str:
    """Run the golden joint search fresh and write its recording."""
    scenario = joint_search_scenario()
    result, digest = _run_joint_search(scenario)
    best = result.best
    doc = {
        "format": JOINT_SEARCH_FORMAT,
        "version": JOINT_SEARCH_VERSION,
        "scenario": scenario.to_doc(),
        "scenario_fingerprint": scenario.fingerprint,
        "levels": list(_JOINT_LEVELS),
        "max_gap": _JOINT_MAX_GAP,
        "evaluations": result.evaluated,
        "best_mapping": {str(r): c for r, c in best.mapping.rank_to_cpu},
        "best_priorities": {str(r): p for r, p in best.priorities},
        "best_time": result.best_time,
        "best_imbalance_percent": result.entries[0][2],
        "best_trace_digest": digest,
    }
    path = joint_search_path(directory)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


@dataclass(frozen=True)
class JointSearchCheck:
    """The golden joint search's replay outcome."""

    path: str
    recorded_digest: str
    replayed_digest: str
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_joint_search(directory: str, strict: bool = True) -> JointSearchCheck:
    """Re-run the recorded joint search and compare the winner.

    The whole pruned (mapping × priority) sweep re-runs — enumeration
    order, symmetry pruning, ranking tie-breaks and the simulator's
    physics all have to reproduce for the winner's mapping, priorities,
    time and trace digest to come out identical.
    """
    path = joint_search_path(directory)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise OracleError(f"no joint-search recording at {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise OracleError(f"unreadable joint-search file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != JOINT_SEARCH_FORMAT:
        raise OracleError(f"{path} is not a joint-search recording")
    if doc.get("version") != JOINT_SEARCH_VERSION:
        raise OracleError(
            f"{path}: joint-search version {doc.get('version')!r} != "
            f"{JOINT_SEARCH_VERSION}; re-record with `repro oracle record`"
        )

    scenario = ScenarioSpec.from_doc(doc["scenario"])
    mismatches: List[str] = []
    if scenario.fingerprint != doc.get("scenario_fingerprint"):
        mismatches.append(
            "scenario fingerprint drifted — the embedded scenario was "
            "edited after recording; re-record instead of editing"
        )
    result, digest = _run_joint_search(scenario)
    best = result.best
    if tuple(doc["levels"]) != _JOINT_LEVELS or doc["max_gap"] != _JOINT_MAX_GAP:
        mismatches.append(
            f"recorded knobs levels={doc['levels']} max_gap={doc['max_gap']} "
            f"!= this build's ({list(_JOINT_LEVELS)}, {_JOINT_MAX_GAP})"
        )
    if result.evaluated != int(doc["evaluations"]):
        mismatches.append(
            f"evaluations {result.evaluated} != recorded {doc['evaluations']} "
            "— the candidate space (or its pruning) changed"
        )
    mapping = {str(r): c for r, c in best.mapping.rank_to_cpu}
    if mapping != doc["best_mapping"]:
        mismatches.append(
            f"best mapping {mapping} != recorded {doc['best_mapping']}"
        )
    priorities = {str(r): p for r, p in best.priorities}
    if priorities != doc["best_priorities"]:
        mismatches.append(
            f"best priorities {priorities} != recorded {doc['best_priorities']}"
        )
    if result.best_time != float(doc["best_time"]):
        mismatches.append(
            f"best time {result.best_time!r} != recorded {doc['best_time']!r}"
        )
    if digest != doc["best_trace_digest"]:
        mismatches.append(
            f"winner's trace digest {digest[:16]}... != recorded "
            f"{str(doc['best_trace_digest'])[:16]}..."
        )
    outcome = JointSearchCheck(
        path=path,
        recorded_digest=str(doc["best_trace_digest"]),
        replayed_digest=digest,
        mismatches=tuple(mismatches),
    )
    if strict and not outcome.ok:
        raise GoldenMismatchError(f"{path}: " + "; ".join(outcome.mismatches))
    return outcome
