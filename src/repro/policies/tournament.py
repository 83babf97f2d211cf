"""The tournament: score every (policy × scenario) cell, rank the zoo.

One tournament is a deterministic function of its
:class:`TournamentConfig` (which policies, which corpus, how many
cells, which seed, which engine). Every policy runs the same seeded
corpus; static policies are applied up front (their
:class:`~repro.core.PriorityAssignment` becomes the spec's static
priorities), dynamic policies ride the fluid engine's ``controllers``
option, and allocation and placement policies rewrite the spec's
*mapping* (the thread-to-core and rank-to-node axes) while leaving
priorities at MEDIUM — every family goes through one
:func:`apply_policy` call and ``Engine.run_batch``, and each distinct
option-less cell is simulated once per tournament. When a
tournament fields both allocation and priority policies the rendered
leaderboard appends a mapping-vs-priority differential line
(:meth:`Leaderboard.differential_evidence`; display-only, never part
of the canonical doc).

The result is a typed :class:`Leaderboard`: per policy the paper's
imbalance metric, mean/worst total-time movement against the ST
baseline (the same corpus with no priority writes), and the trap score
(mean improvement over the migrating-bottleneck SIESTA cells — the
cells static planners are structurally blind to). Its canonical doc is
byte-stable and excludes wall-clock, so the sha256
:attr:`Leaderboard.fingerprint` is reproducible run-to-run and
golden-replayable like a trace digest (the ``leaderboard`` kind of
:mod:`repro.oracle.golden`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.core import Policy
from repro.errors import ConfigurationError, PersistenceError, ValidationError
from repro.policies.corpus import CORPORA, tournament_corpus
from repro.policies.zoo import DEFAULT_POLICIES, get_policy
from repro.scenarios import ScenarioSpec, get_engine
from repro.scenarios.engines import Engine
from repro.telemetry import default_registry
from repro.util.fingerprint import fingerprint_doc
from repro.util.tables import TextTable
from repro.workloads.bt_mz import BtMzConfig

__all__ = [
    "LEADERBOARD_FORMAT",
    "LEADERBOARD_VERSION",
    "TournamentConfig",
    "PolicyScore",
    "Leaderboard",
    "planning_works",
    "apply_policy",
    "run_tournament",
]

LEADERBOARD_FORMAT = "repro-tournament-leaderboard"
#: Bump with a CHANGES.md note whenever the scoring or the canonical
#: document shape changes — recorded leaderboards pin this.
LEADERBOARD_VERSION = 1

#: The paper's documented worst static outcome: MetBench case D finished
#: 17.24% slower than the balanced reference (95.71s vs 81.64s — the gap
#: overshot and reversed the imbalance). The zoo's quality bar: no
#: policy's leaderboard mean may regress past what the paper itself
#: shipped as its cautionary tale (tests/policies/test_tournament.py).
CASE_D_DOCUMENTED_LOSS_PERCENT = 17.24


@dataclass(frozen=True)
class TournamentConfig:
    """Everything that determines a tournament's outcome."""

    policies: Tuple[str, ...] = DEFAULT_POLICIES
    corpus: str = "mixed"
    n_scenarios: int = 50
    seed: int = 0
    engine: str = "fluid"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "policies", tuple(str(p) for p in self.policies)
        )
        if not self.policies:
            raise ConfigurationError("a tournament needs at least one policy")
        if len(set(self.policies)) != len(self.policies):
            raise ConfigurationError(
                f"duplicate policies in {self.policies}"
            )
        if self.corpus not in CORPORA:
            raise ConfigurationError(
                f"unknown corpus {self.corpus!r} (choose from {CORPORA})"
            )
        if self.n_scenarios <= 0:
            raise ConfigurationError(
                f"n_scenarios must be > 0, got {self.n_scenarios}"
            )
        if not self.engine:
            raise ConfigurationError("a tournament needs an engine name")

    def to_doc(self) -> dict:
        return {
            "policies": list(self.policies),
            "corpus": self.corpus,
            "n_scenarios": self.n_scenarios,
            "seed": self.seed,
            "engine": self.engine,
        }

    _FIELDS = ("policies", "corpus", "n_scenarios", "seed", "engine")

    @classmethod
    def from_doc(cls, doc: object) -> "TournamentConfig":
        if not isinstance(doc, dict):
            raise ValidationError(
                f"tournament config must be a JSON object, got {doc!r}"
            )
        unknown = set(doc) - set(cls._FIELDS)
        if unknown:
            raise ValidationError(
                f"unknown tournament config fields: {sorted(unknown)}"
            )
        missing = [k for k in cls._FIELDS if k not in doc]
        if missing:
            raise ValidationError(f"missing tournament config fields: {missing}")
        policies = doc["policies"]
        if not isinstance(policies, (list, tuple)):
            raise ValidationError(
                f"policies must be a list of names, got {policies!r}"
            )
        try:
            return cls(
                policies=tuple(str(p) for p in policies),
                corpus=str(doc["corpus"]),
                n_scenarios=int(doc["n_scenarios"]),
                seed=int(doc["seed"]),
                engine=str(doc["engine"]),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(
                f"malformed tournament config: {exc}"
            ) from exc
        except ConfigurationError as exc:
            raise ValidationError(f"invalid tournament config: {exc}") from exc

    @property
    def fingerprint(self) -> str:
        return fingerprint_doc(self.to_doc())


@dataclass(frozen=True)
class PolicyScore:
    """One leaderboard row: a policy's aggregate over every cell."""

    policy: str
    family: str
    policy_fingerprint: str
    cells: int
    #: Mean of the paper's imbalance metric across cells, percent.
    mean_imbalance_percent: float
    #: Mean total-time improvement vs the ST baseline, percent
    #: (positive = faster than no balancing).
    mean_improvement_percent: float
    #: The single worst cell's slowdown vs baseline, percent
    #: (0.0 when the policy never lost a cell).
    worst_regression_percent: float
    #: Mean improvement over the migrating-bottleneck (siesta) cells;
    #: None when the corpus has none.
    trap_score_percent: Optional[float]
    #: Per-cell total times, corpus order — the replayable evidence.
    total_times: Tuple[float, ...]

    def to_doc(self) -> dict:
        doc: dict = {
            "policy": self.policy,
            "family": self.family,
            "policy_fingerprint": self.policy_fingerprint,
            "cells": self.cells,
            "mean_imbalance_percent": self.mean_imbalance_percent,
            "mean_improvement_percent": self.mean_improvement_percent,
            "worst_regression_percent": self.worst_regression_percent,
            "total_times": list(self.total_times),
        }
        if self.trap_score_percent is not None:
            doc["trap_score_percent"] = self.trap_score_percent
        return doc

    _REQUIRED = (
        "policy",
        "family",
        "policy_fingerprint",
        "cells",
        "mean_imbalance_percent",
        "mean_improvement_percent",
        "worst_regression_percent",
        "total_times",
    )
    _OPTIONAL = ("trap_score_percent",)

    @classmethod
    def from_doc(cls, doc: object) -> "PolicyScore":
        if not isinstance(doc, dict):
            raise ValidationError(
                f"policy score must be a JSON object, got {doc!r}"
            )
        unknown = set(doc) - set(cls._REQUIRED) - set(cls._OPTIONAL)
        if unknown:
            raise ValidationError(f"unknown policy score fields: {sorted(unknown)}")
        missing = [k for k in cls._REQUIRED if k not in doc]
        if missing:
            raise ValidationError(f"missing policy score fields: {missing}")
        try:
            trap = doc.get("trap_score_percent")
            return cls(
                policy=str(doc["policy"]),
                family=str(doc["family"]),
                policy_fingerprint=str(doc["policy_fingerprint"]),
                cells=int(doc["cells"]),
                mean_imbalance_percent=float(doc["mean_imbalance_percent"]),
                mean_improvement_percent=float(doc["mean_improvement_percent"]),
                worst_regression_percent=float(doc["worst_regression_percent"]),
                trap_score_percent=None if trap is None else float(trap),
                total_times=tuple(float(t) for t in doc["total_times"]),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed policy score: {exc}") from exc


@dataclass(frozen=True)
class Leaderboard:
    """A finished tournament: config, corpus evidence, ranked scores.

    The canonical document (:meth:`to_doc`) is byte-stable — all physics
    numbers, no wall-clock — and :attr:`fingerprint` hashes it, so two
    runs of the same config must produce identical fingerprints.
    ``wall_seconds`` is carried for display only and excluded from the
    doc, equality and the fingerprint.
    """

    config: TournamentConfig
    scenario_fingerprints: Tuple[str, ...]
    #: Cell kinds, corpus order, so trap cells stay identifiable from
    #: the artifact alone.
    scenario_kinds: Tuple[str, ...]
    baseline_total_times: Tuple[float, ...]
    #: Ranked best-first by mean improvement (ties: policy name).
    scores: Tuple[PolicyScore, ...]
    wall_seconds: float = field(default=0.0, compare=False)

    def score_of(self, policy: str) -> PolicyScore:
        for score in self.scores:
            if score.policy == policy:
                return score
        raise ConfigurationError(f"no score for policy {policy!r}")

    def to_doc(self) -> dict:
        return {
            "format": LEADERBOARD_FORMAT,
            "version": LEADERBOARD_VERSION,
            "config": self.config.to_doc(),
            "scenario_fingerprints": list(self.scenario_fingerprints),
            "scenario_kinds": list(self.scenario_kinds),
            "baseline_total_times": list(self.baseline_total_times),
            "scores": [s.to_doc() for s in self.scores],
        }

    @classmethod
    def from_doc(cls, doc: object) -> "Leaderboard":
        if not isinstance(doc, dict):
            raise ValidationError(
                f"leaderboard must be a JSON object, got {doc!r}"
            )
        if doc.get("format") != LEADERBOARD_FORMAT:
            raise ValidationError(
                f"not a leaderboard document (format={doc.get('format')!r})"
            )
        if doc.get("version") != LEADERBOARD_VERSION:
            raise ValidationError(
                f"leaderboard version {doc.get('version')!r} unsupported "
                f"(this build reads version {LEADERBOARD_VERSION})"
            )
        known = {
            "format",
            "version",
            "config",
            "scenario_fingerprints",
            "scenario_kinds",
            "baseline_total_times",
            "scores",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown leaderboard fields: {sorted(unknown)}")
        missing = [k for k in known if k not in doc]
        if missing:
            raise ValidationError(f"missing leaderboard fields: {sorted(missing)}")
        return cls(
            config=TournamentConfig.from_doc(doc["config"]),
            scenario_fingerprints=tuple(
                str(f) for f in doc["scenario_fingerprints"]
            ),
            scenario_kinds=tuple(str(k) for k in doc["scenario_kinds"]),
            baseline_total_times=tuple(
                float(t) for t in doc["baseline_total_times"]
            ),
            scores=tuple(PolicyScore.from_doc(s) for s in doc["scores"]),
        )

    @property
    def fingerprint(self) -> str:
        return fingerprint_doc(self.to_doc())

    # -- the on-disk artifact --------------------------------------------------

    def save(self, path: str) -> str:
        """Write the versioned artifact (doc + embedded fingerprint)."""
        doc = self.to_doc()
        doc["fingerprint"] = self.fingerprint
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "Leaderboard":
        """Read an artifact back, verifying its embedded fingerprint."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise PersistenceError(f"no leaderboard at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise PersistenceError(f"unreadable leaderboard {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise PersistenceError(f"{path} is not a leaderboard artifact")
        recorded = doc.pop("fingerprint", None)
        board = cls.from_doc(doc)
        if recorded != board.fingerprint:
            raise PersistenceError(
                f"{path}: embedded fingerprint {str(recorded)[:16]}... does "
                f"not match the content ({board.fingerprint[:16]}...); the "
                "artifact was edited after it was written"
            )
        return board

    def differential_evidence(self) -> Optional[str]:
        """Mapping-vs-priority evidence: best allocation row vs best
        priority row (static or dynamic, the ST reference excluded).

        Display-level only — derived from the scores, never part of the
        canonical doc or the fingerprint. ``None`` when the tournament
        did not field both families.
        """
        allocation = [s for s in self.scores if s.family == "allocation"]
        priority = [
            s
            for s in self.scores
            if s.family in ("static", "dynamic") and s.policy != "st"
        ]
        if not allocation or not priority:
            return None
        best_a = max(allocation, key=lambda s: s.mean_improvement_percent)
        best_p = max(priority, key=lambda s: s.mean_improvement_percent)
        delta = best_a.mean_improvement_percent - best_p.mean_improvement_percent
        axis = "mapping" if delta > 0 else "priority"
        return (
            f"mapping vs priority: best allocation {best_a.policy} "
            f"{best_a.mean_improvement_percent:+.2f}% vs best priority "
            f"{best_p.policy} {best_p.mean_improvement_percent:+.2f}% "
            f"(delta {delta:+.2f} pts; the {axis} axis wins this corpus)"
        )

    def render(self) -> str:
        """The leaderboard as a paper-style text table."""
        table = TextTable(
            ["#", "policy", "family", "impr %", "worst reg %", "imb %",
             "trap %", "cells"],
            title=(
                f"tournament {self.config.corpus} × {self.config.n_scenarios}"
                f" @ seed {self.config.seed} ({self.config.engine})"
            ),
        )
        for place, score in enumerate(self.scores, start=1):
            trap = (
                "-" if score.trap_score_percent is None
                else f"{score.trap_score_percent:+.2f}"
            )
            table.add_row([
                place,
                score.policy,
                score.family,
                f"{score.mean_improvement_percent:+.2f}",
                f"{score.worst_regression_percent:.2f}",
                f"{score.mean_imbalance_percent:.2f}",
                trap,
                score.cells,
            ])
        rendered = table.render()
        evidence = self.differential_evidence()
        if evidence is not None:
            rendered = f"{rendered}\n{evidence}"
        return rendered


_BTMZ_INIT_FACTOR = float(
    BtMzConfig.__dataclass_fields__["init_factor"].default
)


def planning_works(spec: ScenarioSpec) -> Tuple[float, ...]:
    """The per-rank *whole-run* work profile a static planner observes.

    The paper's procedure plans from whole-run compute profiles (the
    "Comp %" columns of an unbalanced reference run), not from one
    iteration's body. The distinction matters: BT-MZ's initialisation
    (``init_factor`` × the mean body work, equal across ranks) and
    SIESTA's init/final edges are *balanced* phases that dilute the
    body imbalance — a gap planned from body works alone penalises a
    rank through phases where it carries its fair share, which is how a
    static policy loses 2x on a short BT-MZ run.
    """
    body = tuple(w * spec.iterations for w in spec.works)
    if spec.kind == "btmz":
        factor = spec.param("init_factor")
        factor = _BTMZ_INIT_FACTOR if factor is None else float(factor)
        init = factor * sum(spec.works) / len(spec.works)
        return tuple(init + w for w in body)
    if spec.kind == "siesta":
        params = spec.params_dict()
        return tuple(
            i + w + f
            for i, w, f in zip(params["init_works"], body, params["final_works"])
        )
    return body


def apply_policy(
    policy: Policy, spec: ScenarioSpec
) -> Tuple[ScenarioSpec, Optional[dict]]:
    """One cell's execution plan: ``(spec to run, engine options)``.

    Every family plans from the whole-run work profile
    (:func:`planning_works` — the observable the paper's procedure
    uses) through :meth:`~repro.core.Policy.apply`: static policies
    write priorities, allocation and placement policies write the
    mapping, dynamic policies return a ``controllers`` factory for the
    engine. A no-op plan returns the spec *itself*, so it keeps the
    corpus spec's canonical bytes and fingerprint, and
    :func:`run_tournament` scores it from the baseline run.
    """
    changes, options = policy.apply(
        planning_works(spec),
        spec.mapping_obj(),
        profiles=spec.profile,
        topology=spec.topology,
    )
    return (replace(spec, **changes) if changes else spec), options


def _observe_policy(name: str, improvements: Sequence[float]) -> None:
    """Per-policy tournament telemetry into the default registry."""
    reg = default_registry()
    reg.counter(
        "repro_tournament_cells_total",
        "Scored tournament cells, by policy.",
        labelnames=("policy",),
    ).labels(name).inc(len(improvements))
    hist = reg.histogram(
        "repro_tournament_improvement_percent",
        "Per-cell total-time improvement vs the ST baseline, by policy.",
        labelnames=("policy",),
    ).labels(name)
    for value in improvements:
        hist.observe(value)


def _run_cells(
    engine: Engine,
    specs: List[ScenarioSpec],
    label: str,
    options: Optional[dict],
    batch: bool,
) -> List[Tuple[float, Optional[float]]]:
    """Run ``specs``, keeping only ``(total_time, imbalance_percent)``."""
    if not specs:
        return []
    labels = [f"tournament.{label}.{spec.name}" for spec in specs]
    if batch:
        results = engine.run_batch(specs, labels=labels, options=options)
    else:
        results = [
            engine.run(spec, label=name, options=options)
            for spec, name in zip(specs, labels)
        ]
    return [(r.total_time, r.imbalance_percent) for r in results]


def run_tournament(
    config: TournamentConfig,
    *,
    batch: bool = True,
    engine: Optional[Engine] = None,
) -> Leaderboard:
    """Score every (policy × scenario) cell and rank the zoo.

    Each distinct option-less cell is simulated once per tournament,
    keyed by spec fingerprint; cells with engine options (a dynamic
    policy's ``controllers`` factory) are never shared.

    ``batch`` picks the execution strategy only (``run_batch`` vs a
    scalar loop) — results and the leaderboard fingerprint are
    identical either way, which ``benchmarks/bench_tournament.py``
    asserts. ``engine`` overrides the registry lookup (benchmarks pass
    a cold engine; everything else resolves ``config.engine``).
    """
    t0 = time.perf_counter()
    policies = [get_policy(name) for name in config.policies]
    eng = engine if engine is not None else get_engine(config.engine)
    specs = tournament_corpus(config.corpus, config.n_scenarios, config.seed)
    plans = [[apply_policy(policy, spec) for spec in specs] for policy in policies]
    for policy, cells in zip(policies, plans):
        for _, options in cells:
            unknown = sorted(set(options or ()) - set(eng.option_names))
            if unknown:
                raise ConfigurationError(
                    f"policy {policy.name!r} needs engine options {unknown} "
                    f"that engine {eng.name!r} does not take (use fluid)"
                )

    # The ST baseline: the corpus exactly as drawn — no priority writes.
    baseline = _run_cells(eng, specs, "baseline", None, batch)
    if any(imbalance is None for _, imbalance in baseline):
        raise ConfigurationError(
            f"engine {eng.name!r} reports no imbalance metric; the "
            "tournament needs a trace-producing engine"
        )
    base_times = [t for t, _ in baseline]
    # Scored numbers per distinct option-less cell, by spec fingerprint.
    scored = dict(zip([s.fingerprint for s in specs], baseline))

    scores: List[PolicyScore] = []
    for policy, cells in zip(policies, plans):
        cell_specs = [spec for spec, _ in cells]
        options = next((o for _, o in cells if o is not None), None)
        if options is None:
            fresh = {c.fingerprint: c for c in cell_specs if c.fingerprint not in scored}
            new = _run_cells(eng, list(fresh.values()), policy.name, None, batch)
            scored.update(zip(fresh, new))
            numbers = [scored[s.fingerprint] for s in cell_specs]
        else:
            numbers = _run_cells(eng, cell_specs, policy.name, options, batch)
        times = [t for t, _ in numbers]
        improvements = [
            (base - t) / base * 100.0 for base, t in zip(base_times, times)
        ]
        trap = [
            gain
            for gain, spec in zip(improvements, specs)
            if spec.kind == "siesta"
        ]
        scores.append(
            PolicyScore(
                policy=policy.name,
                family=policy.family,
                policy_fingerprint=policy.fingerprint,
                cells=len(specs),
                mean_imbalance_percent=(
                    sum(imbalance for _, imbalance in numbers) / len(numbers)
                ),
                mean_improvement_percent=sum(improvements) / len(improvements),
                worst_regression_percent=max(0.0, -min(improvements)),
                trap_score_percent=(sum(trap) / len(trap)) if trap else None,
                total_times=tuple(times),
            )
        )
        _observe_policy(policy.name, improvements)

    scores.sort(key=lambda s: (-s.mean_improvement_percent, s.policy))
    return Leaderboard(
        config=config,
        scenario_fingerprints=tuple(s.fingerprint for s in specs),
        scenario_kinds=tuple(s.kind for s in specs),
        baseline_total_times=tuple(base_times),
        scores=tuple(scores),
        wall_seconds=time.perf_counter() - t0,
    )
