"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration problems from simulation-time faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulation/system configuration is inconsistent or out of range."""


class PrivilegeError(ReproError):
    """An actor attempted to set a hardware priority above its privilege.

    Mirrors the POWER5 rules (paper Table I): user software may set
    priorities 2-4, the OS 1-6, and only the hypervisor may use 0 and 7.
    """

    def __init__(self, actor: str, priority: int, allowed: str) -> None:
        self.actor = actor
        self.priority = priority
        super().__init__(
            f"{actor} may not set hardware priority {priority}; allowed: {allowed}"
        )


class InvalidPriorityError(ReproError):
    """A hardware thread priority outside the architectural range 0-7."""

    def __init__(self, value: object) -> None:
        self.value = value
        super().__init__(f"hardware thread priority must be an integer in 0..7, got {value!r}")


class MpiError(ReproError):
    """Base class for errors raised by the simulated MPI runtime."""


class RankError(MpiError):
    """A rank index outside the communicator's size."""


class RequestError(MpiError):
    """Misuse of a nonblocking request (double wait, wait on freed, ...)."""


class DeadlockError(MpiError):
    """The discrete-event runtime detected that no process can make progress."""

    def __init__(self, detail: str) -> None:
        super().__init__(f"simulated MPI deadlock: {detail}")


class MappingError(ReproError):
    """A process-to-hardware-context mapping is invalid (overlap, bad cpu id)."""


class TraceError(ReproError):
    """A trace is malformed or queried inconsistently."""


class WorkloadError(ReproError):
    """A workload definition is invalid (negative work, bad rank count, ...)."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent internal state."""


class PersistenceError(ReproError):
    """A persisted artifact (throughput table, ...) is malformed or does
    not match the configuration that is trying to load it."""


class ValidationError(ReproError, ValueError):
    """A serialised document failed schema validation.

    Raised by the strict ``from_doc`` deserialisers (scenario specs and
    their envelopes) for unknown fields, missing required fields, or
    values that cannot be coerced to the declared shape. Derives from
    ``ValueError`` so generic callers that catch the builtin keep
    working, and from :class:`ReproError` so the HTTP layer maps it to a
    400 like every other library error."""


class ValidationTypeError(ReproError, TypeError):
    """A value has the wrong type.

    Derives from both :class:`ReproError` (so library-wide ``except
    ReproError`` handlers see it) and :class:`TypeError` (so callers that
    catch the builtin keep working)."""


class OracleError(ReproError):
    """Base class for the invariant/conformance oracle layer."""


class InvariantViolation(OracleError):
    """A machine-checked physics invariant does not hold.

    Carries the violated invariant's registry name and a human-readable
    detail so CI logs point straight at the broken law."""

    def __init__(self, invariant: str, detail: str) -> None:
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"invariant {invariant!r} violated: {detail}")


class GoldenMismatchError(OracleError):
    """A replayed run disagrees with its recorded golden-trace snapshot."""


class ServiceError(ReproError):
    """Base class for the scenario-serving service layer."""


class QueueFullError(ServiceError):
    """The job queue rejected an admission (backpressure).

    Carries ``retry_after`` — the server's estimate, in seconds, of when
    capacity will free up — which the HTTP layer surfaces as a 429 with
    a ``Retry-After`` header so well-behaved clients back off instead of
    hammering a saturated service.
    """

    def __init__(self, depth: int, max_depth: int, retry_after: float) -> None:
        self.depth = depth
        self.max_depth = max_depth
        self.retry_after = retry_after
        super().__init__(
            f"job queue full ({depth}/{max_depth}); retry after "
            f"{retry_after:.1f}s"
        )


class JobTimeoutError(ServiceError):
    """A job exceeded its per-attempt timeout or total deadline."""

    def __init__(self, job_id: str, limit: float, kind: str = "timeout") -> None:
        self.job_id = job_id
        self.limit = limit
        super().__init__(f"job {job_id} exceeded its {kind} of {limit:.1f}s")


class UnknownJobError(ServiceError):
    """A job id that the service has never issued (or has evicted)."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job id {job_id!r}")


class TransientWorkerError(ServiceError):
    """A worker failed in a way worth retrying (the retry-with-backoff
    class; deterministic configuration errors are *not* retried)."""
