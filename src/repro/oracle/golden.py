"""Golden records: recorded physics future PRs are diffed against.

Every file under ``tests/golden/`` is one versioned record::

    {"format": "repro-golden", "version": 3, "kind": ..., "name": ...,
     "input": ..., "input_fingerprint": fingerprint_doc(input),
     "expected": ...}

``kind`` picks the replay that maps ``input`` to ``expected``:

* ``trace`` — a :class:`~repro.scenarios.ScenarioSpec` doc, run through
  the fluid engine with live invariant checking. Expected: the sha256
  trace digest, the paper's two metrics, events processed, final
  priorities and the per-rank state fractions. The input fingerprint is
  the scenario's own fingerprint.
* ``joint-search`` — ``{scenario, levels, max_gap}``: the whole
  symmetry-pruned (mapping × priority) search. Expected: the number of
  candidates evaluated and the winner's mapping, priorities, time,
  imbalance and trace digest.
* ``leaderboard`` — a :class:`~repro.policies.TournamentConfig` doc.
  Expected: the tournament :class:`~repro.policies.Leaderboard`'s
  canonical doc and fingerprint, which golden-replays the whole policy
  subsystem the way a trace digest golden-replays one scenario.

``repro oracle check`` replays each record and compares ``expected``
with the replayed doc leaf by leaf (:func:`check`). The input
fingerprint is re-derived on load, so a hand-edited input is reported as
tampering rather than silently replayed. With the default tolerance 0
every leaf must be equal (the simulator is deterministic:
``tests/integration/test_determinism.py``). A positive ``--tolerance``
is for cross-platform runs and widens only trace records: their floats
compare within the relative band and a digest difference is reported
(:attr:`GoldenCheck.digest_equal`) without failing. Joint-search and
leaderboard records always compare exactly.

Bump :data:`GOLDEN_VERSION` when the record shape changes or an
*intentional* physics change lands, and re-record with ``repro oracle
record`` in the same PR, so the diff shows exactly which numbers moved.
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass
from typing import List, Tuple

from repro.core import joint_search
from repro.errors import GoldenMismatchError, OracleError
from repro.machine.system import System, SystemConfig
from repro.policies import TournamentConfig, run_tournament
from repro.scenarios import (
    ExecutionResult, ScenarioSpec, get_engine, trace_digest,
)
from repro.util.fingerprint import fingerprint_doc

__all__ = [
    "GOLDEN_FORMAT",
    "GOLDEN_VERSION",
    "GoldenCheck",
    "default_records",
    "golden_path",
    "golden_paths",
    "load",
    "record",
    "record_all",
    "check",
    "check_all",
]

GOLDEN_FORMAT = "repro-golden"
#: v2: the analytic model's core memo keys carry *exact* external
#: traffic (they used to round to 1e-4), making the model a pure
#: function of its query. Converged values moved in the ~8th decimal
#: for scenarios with nonzero cross-core traffic; re-recorded in the
#: same PR that introduced the batch execution path, which relies on
#: the history-independence the exact keys provide.
#: v3: one record shape (input, expected, per-kind replay) for the
#: trace, joint-search and leaderboard goldens; every recorded value
#: carried over unchanged.
GOLDEN_VERSION = 3


def default_records() -> List[Tuple[str, str, dict]]:
    """``(kind, name, input)`` for every committed golden record."""
    # One trace per workload family, covering the identity and paper
    # mappings and a static priority assignment.
    traces = [
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
        # format, multi-node System cross-node costs, per-node priority
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
    # The joint search's workload is a skewed 4-rank MetBench run where
    # both the pairing and the priorities matter: 3 levels × |gap| ≤ 2
    # per core over the symmetry-pruned mapping axis (24 → 3 classes),
    # 243 candidates.
    joint = ScenarioSpec(
        name="joint-smoke",
        kind="metbench",
        works=(8.0e8, 2.4e9, 1.2e9, 2.0e9),
        iterations=2,
    )
    # The tournament is small enough for CI and wide enough to cover both
    # policy families and both corpus cell kinds.
    tournament = TournamentConfig(
        policies=("st", "paper-c", "propshare", "hysteresis"),
        corpus="mixed",
        n_scenarios=6,
        seed=2008,
    )
    return [("trace", s.name, s.to_doc()) for s in traces] + [
        ("joint-search", "joint-search",
         {"scenario": joint.to_doc(), "levels": [4, 5, 6], "max_gap": 2}),
        ("leaderboard", "tournament-smoke", tournament.to_doc()),
    ]


# -- the per-kind replays: input doc -> expected doc ----------------------------


def _trace_doc(result: ExecutionResult) -> dict:
    """The engine's run summary under the golden record's field names."""
    return {
        "trace_digest": result.digest,
        "total_time": result.total_time,
        "imbalance_percent": result.imbalance_percent,
        "events_processed": result.events_processed,
        "final_priorities": list(result.final_priorities),
        "ranks": list(result.ranks),
    }


def _replay_trace(doc: dict) -> dict:
    """The fluid engine with live invariant checking, labelled exactly
    as the oracle always labelled it (labels do not enter the digest,
    but keep logs continuous)."""
    scenario = ScenarioSpec.from_doc(doc)
    return _trace_doc(get_engine("fluid").run(
        scenario,
        label=f"oracle.{scenario.name}",
        options={"check_invariants": True},
    ))


def _replay_joint_search(doc: dict) -> dict:
    """A fresh System, the symmetry-pruned joint search, and the winner
    re-run once for its trace digest: enumeration order, pruning,
    ranking tie-breaks and physics all have to reproduce."""
    scenario = ScenarioSpec.from_doc(doc["scenario"])
    system = System(SystemConfig(seed=scenario.seed))
    result = joint_search(
        system,
        scenario.programs,
        n_ranks=scenario.n_ranks,
        levels=tuple(doc["levels"]),
        max_gap=doc["max_gap"],
        keep_top=1,
    )
    best = result.best
    run = system.run(
        list(scenario.programs()),
        mapping=best.mapping,
        priorities=best.priority_dict,
        label=f"oracle.joint.{scenario.name}",
    )
    return {
        "evaluations": result.evaluated,
        "best_mapping": {str(r): c for r, c in best.mapping.rank_to_cpu},
        "best_priorities": {str(r): p for r, p in best.priorities},
        "best_time": result.best_time,
        "best_imbalance_percent": result.entries[0][2],
        "best_trace_digest": trace_digest(run),
    }


def _replay_leaderboard(doc: dict) -> dict:
    """The canonical leaderboard doc covers the corpus (scenario
    fingerprints), every per-cell total time and every aggregate, so
    drift in corpus drawing, policy planning or physics shows here."""
    board = run_tournament(TournamentConfig.from_doc(doc))
    return {"leaderboard": board.to_doc(), "fingerprint": board.fingerprint}


#: kind -> (replay, the expected leaf that identifies the replay).
_KINDS = {
    "trace": (_replay_trace, "trace_digest"),
    "joint-search": (_replay_joint_search, "best_trace_digest"),
    "leaderboard": (_replay_leaderboard, "fingerprint"),
}


def _as_json(doc: dict) -> dict:
    """``doc`` as it reads back from disk, so a fresh replay compares
    equal to its own recording."""
    return json.loads(json.dumps(doc))


def _replay(kind: str, input_doc: dict) -> dict:
    return _as_json(_KINDS[kind][0](input_doc))


# -- record / load / check -------------------------------------------------------


def golden_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.golden.json")


def golden_paths(directory: str) -> List[str]:
    """All golden records under ``directory``, sorted."""
    return sorted(glob.glob(os.path.join(directory, "*.golden.json")))


def record(directory: str, kind: str, name: str, input_doc: dict) -> str:
    """Replay ``input_doc`` fresh and write its record to
    ``<directory>/<name>.golden.json``; returns the path."""
    input_doc = _as_json(input_doc)
    doc = {
        "format": GOLDEN_FORMAT,
        "version": GOLDEN_VERSION,
        "kind": kind,
        "name": name,
        "input": input_doc,
        "input_fingerprint": fingerprint_doc(input_doc),
        "expected": _replay(kind, input_doc),
    }
    path = golden_path(directory, name)
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def record_all(directory: str) -> List[str]:
    """Record every default golden into ``directory``; returns paths."""
    return [record(directory, *r) for r in default_records()]


def load(path: str) -> dict:
    """Read one golden record, gated on its format, version and kind."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise OracleError(f"no golden file at {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise OracleError(f"unreadable golden file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != GOLDEN_FORMAT:
        raise OracleError(f"{path} is not a golden record")
    if doc.get("version") != GOLDEN_VERSION:
        raise OracleError(
            f"{path}: golden version {doc.get('version')!r} != "
            f"{GOLDEN_VERSION}; re-record with `repro oracle record`"
        )
    if doc.get("kind") not in _KINDS:
        raise OracleError(f"{path}: unknown golden kind {doc.get('kind')!r}")
    missing = [k for k in ("name", "input", "input_fingerprint") if k not in doc]
    if missing or not isinstance(doc.get("expected"), dict):
        raise OracleError(
            f"{path}: malformed golden record ({missing or 'expected'})"
        )
    return doc


@dataclass(frozen=True)
class GoldenCheck:
    """One golden record's replay outcome."""

    path: str
    record: dict
    replayed: dict
    mismatches: Tuple[str, ...] = ()
    #: True for the batch-path replay of a trace record.
    batch: bool = False

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def kind(self) -> str:
        return self.record["kind"]

    @property
    def recorded_digest(self) -> str:
        return str(self.record["expected"].get(_KINDS[self.kind][1]))

    @property
    def replayed_digest(self) -> str:
        return str(self.replayed.get(_KINDS[self.kind][1]))

    @property
    def digest_equal(self) -> bool:
        return self.recorded_digest == self.replayed_digest


def _diff(
    where: str, want: object, got: object, tol: float, out: List[str]
) -> None:
    """Append one line to ``out`` per leaf where ``got`` departs from
    ``want``; with ``tol > 0`` floats compare within a relative band."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys()):
            if key not in got:
                out.append(f"{where}.{key}: recorded but not replayed")
            elif key not in want:
                out.append(f"{where}.{key}: replayed but not recorded")
            else:
                _diff(f"{where}.{key}", want[key], got[key], tol, out)
    elif (isinstance(want, list) and isinstance(got, list)
          and len(want) == len(got)):
        for i, (w, g) in enumerate(zip(want, got)):
            _diff(f"{where}[{i}]", w, g, tol, out)
    elif tol > 0 and isinstance(want, float) and isinstance(got, float):
        if not math.isclose(got, want, rel_tol=tol, abs_tol=tol):
            out.append(f"{where}: replayed {got!r} vs recorded {want!r}")
    elif want != got:
        out.append(f"{where}: replayed {got!r} vs recorded {want!r}")


def _compare(
    path: str,
    doc: dict,
    replayed: dict,
    tolerance: float,
    strict: bool,
    batch: bool = False,
) -> GoldenCheck:
    mismatches: List[str] = []
    if fingerprint_doc(doc["input"]) != doc["input_fingerprint"]:
        mismatches.append(
            "input fingerprint drifted — the input was edited after "
            "recording; re-record instead of editing"
        )
    want, got = doc["expected"], replayed
    if doc["kind"] == "trace" and tolerance > 0:
        # Cross-platform replay: the digest is reported, not failed.
        want = {k: v for k, v in want.items() if k != "trace_digest"}
        got = {k: v for k, v in got.items() if k != "trace_digest"}
    else:
        tolerance = 0.0
    _diff("expected", want, got, tolerance, mismatches)
    outcome = GoldenCheck(path, doc, replayed, tuple(mismatches), batch)
    if strict and not outcome.ok:
        raise GoldenMismatchError(f"{path}: " + "; ".join(outcome.mismatches))
    return outcome


def check(path: str, tolerance: float = 0.0, strict: bool = True) -> GoldenCheck:
    """Replay one golden record and compare against what it expects.

    ``tolerance`` is a relative band on a trace record's floats (see the
    module docstring); ``strict=True`` raises
    :class:`~repro.errors.GoldenMismatchError` on any mismatch.
    """
    doc = load(path)
    return _compare(
        path, doc, _replay(doc["kind"], doc["input"]), tolerance, strict
    )


def check_all(
    directory: str, tolerance: float = 0.0, strict: bool = True
) -> List[GoldenCheck]:
    """Replay every golden record under ``directory``, then every trace
    record again through one ``run_batch`` call.

    The batch pass (per-spec event loops on one engine's shared warm
    ``System``) is the law that the batch path is history-independent:
    a digest must not depend on what ran earlier in the batch. Its
    outcomes come last, with ``batch=True``.
    """
    paths = golden_paths(directory)
    if not paths:
        raise OracleError(f"no *.golden.json files under {directory}")
    checks = [check(p, tolerance=tolerance, strict=strict) for p in paths]
    traces = [c for c in checks if c.kind == "trace"]
    scenarios = [ScenarioSpec.from_doc(c.record["input"]) for c in traces]
    results = get_engine("fluid").run_batch(
        scenarios,
        labels=[f"oracle.{s.name}" for s in scenarios],
        options={"check_invariants": True},
    )
    return checks + [
        _compare(c.path, c.record, _as_json(_trace_doc(r)), tolerance,
                 strict, batch=True)
        for c, r in zip(traces, results)
    ]
