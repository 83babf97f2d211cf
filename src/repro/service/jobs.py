"""The service layer's request/outcome language.

A :class:`JobSpec` is a thin wire envelope around one simulation
request — either a canonical :class:`~repro.scenarios.ScenarioSpec`
(the declarative, fingerprintable form) or one of the paper suites' named
cases (``metbench``/``btmz``/``siesta`` + ``A``..``D``/``ST``) — plus the
options that change its physics (throughput model, invariant checking)
and the options that only change its handling (lane, timeout, deadline,
retries). The split matters: :attr:`JobSpec.fingerprint` hashes exactly
the physics-determining fields (via the shared
:mod:`repro.util.fingerprint` canonical form), so two requests that must
produce bit-identical traces share a cache key no matter how they were
queued — and the key lives in the same namespace as golden-trace keys,
because a scenario-kind envelope embeds the scenario's own fingerprint.

A :class:`Job` is one submission's lifecycle (queued → running → done /
failed / cancelled, with timestamps and attempt accounting); a
:class:`JobResult` is the immutable outcome: the run's sha256 trace
digest, the paper's two metrics, and the per-rank state breakdown — the
same provenance a golden-trace snapshot pins.
"""

from __future__ import annotations

import enum
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ServiceError
from repro.scenarios.engines import ExecutionResult
from repro.scenarios.registry import engine_for_model
from repro.scenarios.spec import ScenarioSpec
from repro.util.fingerprint import fingerprint_doc
from repro.util.validation import check_choice, check_positive

__all__ = [
    "JobState",
    "RetryPolicy",
    "JobSpec",
    "JobResult",
    "Job",
    "SUITES",
    "LANES",
]

#: Paper suites a case-kind spec may name (mirrors the CLI's `case` command).
SUITES = ("metbench", "btmz", "siesta")

#: Priority lanes, highest first: interactive requests overtake batch
#: sweeps at every dequeue, FIFO within a lane.
LANES = ("interactive", "batch")

_MODELS = ("analytic", "cycle")


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient worker failures.

    Attempt *n* (0-based) that fails transiently is retried after
    ``base_s * multiplier**n`` seconds, capped at ``max_backoff_s``,
    for at most ``max_retries`` retries. Deterministic failures
    (configuration errors) are never retried.
    """

    max_retries: int = 2
    base_s: float = 0.1
    multiplier: float = 2.0
    max_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        check_positive("retry.base_s", self.base_s)
        check_positive("retry.multiplier", self.multiplier)
        check_positive("retry.max_backoff_s", self.max_backoff_s)

    def delay(self, attempt: int) -> float:
        """Backoff before the retry that follows failed attempt ``attempt``."""
        return min(self.base_s * self.multiplier ** max(attempt, 0),
                   self.max_backoff_s)


@dataclass(frozen=True)
class JobSpec:
    """One simulation request.

    Exactly one of ``scenario`` (oracle form) or ``suite``+``case``
    (paper-case form) must be given. ``model``/``check_invariants``
    change the physics provenance and are part of the fingerprint;
    ``lane``/``timeout_s``/``deadline_s``/``max_retries`` only shape
    scheduling and are not.
    """

    scenario: Optional[ScenarioSpec] = None
    suite: Optional[str] = None
    case: Optional[str] = None
    iterations: Optional[int] = None
    model: str = "analytic"
    check_invariants: bool = False
    lane: str = "batch"
    #: Per-attempt wall-clock limit; None = the service default.
    timeout_s: Optional[float] = None
    #: Total budget from submission (queue wait + all attempts included).
    deadline_s: Optional[float] = None
    #: None = the service's default retry count for transient failures.
    max_retries: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.suite is None):
            raise ConfigurationError(
                "a JobSpec needs exactly one of scenario= or suite=/case="
            )
        if self.suite is not None:
            check_choice("spec.suite", self.suite, SUITES)
            if not self.case:
                raise ConfigurationError("suite-kind specs need a case name")
            if self.iterations is not None:
                check_positive("spec.iterations", self.iterations)
        elif self.iterations is not None:
            raise ConfigurationError(
                "iterations only applies to suite-kind specs "
                "(scenario carries its own)"
            )
        check_choice("spec.model", self.model, _MODELS)
        check_choice("spec.lane", self.lane, LANES)
        if self.timeout_s is not None:
            check_positive("spec.timeout_s", self.timeout_s)
        if self.deadline_s is not None:
            check_positive("spec.deadline_s", self.deadline_s)
        if self.max_retries is not None and self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @property
    def kind(self) -> str:
        return "scenario" if self.scenario is not None else "case"

    @property
    def engine(self) -> str:
        """The registered engine that realises this request's model knob."""
        return engine_for_model(self.model)

    @property
    def label(self) -> str:
        if self.scenario is not None:
            return f"scenario.{self.scenario.name}"
        return f"{self.suite}.{self.case}"

    # -- content address -------------------------------------------------------

    def physics_doc(self) -> dict:
        """The canonical form of everything that determines the result."""
        doc: dict = {"model": self.model,
                     "check_invariants": self.check_invariants}
        if self.scenario is not None:
            # The scenario's own sha256 fingerprint is its content
            # address; reusing it keeps service cache keys and
            # golden-trace keys in one namespace.
            doc["scenario_fingerprint"] = self.scenario.fingerprint
        else:
            doc["suite"] = self.suite
            doc["case"] = self.case
            doc["iterations"] = self.iterations
        return doc

    @property
    def fingerprint(self) -> str:
        """sha256 content address of the request's physics.

        Memoised (the spec is frozen): the cache claims it at
        submission, the settle path and the result all reuse it.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_doc(self.physics_doc())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # -- serialisation ---------------------------------------------------------

    def to_doc(self) -> dict:
        doc: dict = {
            "model": self.model,
            "check_invariants": self.check_invariants,
            "lane": self.lane,
        }
        if self.scenario is not None:
            doc["scenario"] = self.scenario.to_doc()
        else:
            doc["suite"] = self.suite
            doc["case"] = self.case
            if self.iterations is not None:
                doc["iterations"] = self.iterations
        for key in ("timeout_s", "deadline_s", "max_retries"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    @classmethod
    def from_doc(cls, doc: object) -> "JobSpec":
        if not isinstance(doc, dict):
            raise ServiceError(f"job spec must be a JSON object, got {doc!r}")
        unknown = set(doc) - {
            "scenario", "suite", "case", "iterations", "model",
            "check_invariants", "lane", "timeout_s", "deadline_s",
            "max_retries",
        }
        if unknown:
            raise ServiceError(f"unknown job spec fields: {sorted(unknown)}")
        scenario = None
        if doc.get("scenario") is not None:
            # Strict: unknown/missing scenario fields raise the typed
            # ValidationError (a ReproError, so the HTTP layer's 400
            # mapping still applies).
            scenario = ScenarioSpec.from_doc(doc["scenario"])
        check_invariants = doc.get("check_invariants", False)
        if not isinstance(check_invariants, bool):
            # bool() would read "false" as True, under another content
            # address than a real false.
            raise ServiceError(
                f"check_invariants must be a boolean, got {check_invariants!r}"
            )
        try:
            return cls(
                scenario=scenario,
                suite=doc.get("suite"),
                case=str(doc["case"]).upper() if doc.get("case") else None,
                iterations=(int(doc["iterations"])
                            if doc.get("iterations") is not None else None),
                model=str(doc.get("model", "analytic")),
                check_invariants=check_invariants,
                lane=str(doc.get("lane", "batch")),
                timeout_s=(float(doc["timeout_s"])
                           if doc.get("timeout_s") is not None else None),
                deadline_s=(float(doc["deadline_s"])
                            if doc.get("deadline_s") is not None else None),
                max_retries=(int(doc["max_retries"])
                             if doc.get("max_retries") is not None else None),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job spec: {exc}") from exc


@dataclass(frozen=True)
class JobResult:
    """The immutable outcome of one executed spec, with full provenance."""

    fingerprint: str
    digest: str
    label: str
    model: str
    total_time: float
    imbalance_percent: float
    events_processed: int
    final_priorities: Tuple[int, ...]
    ranks: Tuple[dict, ...]
    #: Wall-clock seconds the simulation itself took on the worker.
    compute_seconds: float

    @classmethod
    def from_execution(cls, spec: JobSpec, result: ExecutionResult) -> "JobResult":
        """Adopt an engine's :class:`~repro.scenarios.ExecutionResult`."""
        if result.digest is None or result.imbalance_percent is None:
            raise ServiceError(
                f"engine {result.engine!r} produced no trace; the service "
                "serves trace-producing engines only"
            )
        return cls(
            fingerprint=spec.fingerprint,
            digest=result.digest,
            label=result.label,
            model=spec.model,
            total_time=result.total_time,
            imbalance_percent=result.imbalance_percent,
            events_processed=result.events_processed,
            final_priorities=result.final_priorities,
            ranks=result.ranks,
            compute_seconds=result.compute_seconds,
        )

    def to_doc(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "digest": self.digest,
            "label": self.label,
            "model": self.model,
            "total_time": self.total_time,
            "imbalance_percent": self.imbalance_percent,
            "events_processed": self.events_processed,
            "final_priorities": list(self.final_priorities),
            "ranks": [dict(r) for r in self.ranks],
            "compute_seconds": self.compute_seconds,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "JobResult":
        try:
            return cls(
                fingerprint=str(doc["fingerprint"]),
                digest=str(doc["digest"]),
                label=str(doc.get("label", "")),
                model=str(doc.get("model", "analytic")),
                total_time=float(doc["total_time"]),
                imbalance_percent=float(doc["imbalance_percent"]),
                events_processed=int(doc["events_processed"]),
                final_priorities=tuple(
                    int(p) for p in doc.get("final_priorities", ())
                ),
                ranks=tuple(dict(r) for r in doc.get("ranks", ())),
                compute_seconds=float(doc.get("compute_seconds", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job result: {exc}") from exc


@dataclass
class Job:
    """One submission's lifecycle. Mutated only by the service (under its
    lock); readers get consistent snapshots via :meth:`to_doc`."""

    spec: JobSpec
    id: str = field(default_factory=lambda: f"job-{uuid.uuid4().hex[:12]}")
    state: JobState = JobState.QUEUED
    #: Wall-clock timestamps, for user-facing reporting only. All
    #: duration and deadline arithmetic runs on the monotonic pair
    #: below, so a wall-clock step (NTP, DST) cannot corrupt latency
    #: samples or per-attempt budgets.
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    submitted_mono: float = field(default_factory=time.monotonic, repr=False)
    finished_mono: Optional[float] = field(default=None, repr=False)
    attempts: int = 0
    error: Optional[str] = None
    result: Optional[JobResult] = None
    #: How the result was obtained: "computed", "cache" (hit on a stored
    #: result) or "coalesced" (shared an in-flight computation).
    source: str = "computed"
    #: Signalled exactly once, on reaching a terminal state.
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def latency_s(self) -> Optional[float]:
        """Submission-to-terminal duration; None while in flight.

        Measured on the monotonic clock, so it is immune to wall-clock
        steps between submission and completion.
        """
        if self.finished_mono is None:
            return None
        return self.finished_mono - self.submitted_mono

    def deadline_remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Monotonic seconds left in the total budget; None if unbounded."""
        if self.spec.deadline_s is None:
            return None
        now_mono = time.monotonic() if now is None else now
        return self.submitted_mono + self.spec.deadline_s - now_mono

    def deadline_exceeded(self, now: Optional[float] = None) -> bool:
        """``now``, when given, is a ``time.monotonic()`` reading."""
        remaining = self.deadline_remaining(now)
        return remaining is not None and remaining < 0.0

    def finish(
        self,
        state: JobState,
        result: Optional[JobResult] = None,
        error: Optional[str] = None,
        source: str = "computed",
    ) -> None:
        """Move to a terminal state and wake every waiter."""
        if not state.terminal:
            raise ServiceError(f"finish() needs a terminal state, got {state}")
        self.state = state
        self.result = result
        self.error = error
        self.source = source
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()
        self.done.set()

    def to_doc(self) -> dict:
        doc: dict = {
            "id": self.id,
            "state": self.state.value,
            "spec": self.spec.to_doc(),
            "fingerprint": self.spec.fingerprint,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "source": self.source,
        }
        if self.latency_s is not None:
            doc["latency_s"] = self.latency_s
        if self.error is not None:
            doc["error"] = self.error
        if self.result is not None:
            doc["result"] = self.result.to_doc()
        return doc


def jobs_by_state(jobs: List[Job]) -> Dict[str, int]:
    """State-name -> count, every state present (zeroes included)."""
    counts = {state.value: 0 for state in JobState}
    for job in jobs:
        counts[job.state.value] += 1
    return counts
