"""Exception taxonomy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can catch
every library-specific failure with one ``except`` clause while still letting
programming errors (``TypeError`` and friends raised by Python itself)
propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "GraphError",
    "CycleError",
    "UnknownTaskError",
    "ScheduleError",
    "CapacityExceededError",
    "PrecedenceViolationError",
    "SimulationError",
    "InvariantViolationError",
    "TaskAbortedError",
    "BatchUnsupportedError",
    "AllocationError",
    "FittingError",
    "ExperimentFailedError",
    "ServiceError",
    "ProtocolError",
    "AdmissionRejected",
    "QuotaExceeded",
    "DeadlineExceeded",
    "SessionClosed",
    "JournalCorruptError",
]


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class InvalidParameterError(ReproError, ValueError):
    """A model, scheduler, or generator parameter is out of range."""


class GraphError(ReproError):
    """Base class for task-graph construction and query errors."""


class CycleError(GraphError):
    """The supplied precedence constraints contain a directed cycle."""


class UnknownTaskError(GraphError, KeyError):
    """A task id was referenced that is not part of the graph."""


class ScheduleError(ReproError):
    """Base class for schedule feasibility violations."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class InvariantViolationError(SimulationError):
    """A runtime invariant of the engine was violated mid-simulation.

    The capacity and precedence errors are also schedule errors: one rule
    (:mod:`repro.sim.feasibility`) judges schedules and runs alike.

    Carries structured event context so a failing run can be diagnosed
    without re-executing it: the simulated ``time``, the ``event`` kind
    being processed, and (when applicable) the ``task_id`` involved.
    """

    def __init__(
        self,
        message: str,
        *,
        time: float | None = None,
        event: str | None = None,
        task_id: object | None = None,
    ) -> None:
        context = []
        if time is not None:
            context.append(f"t={time:.6g}")
        if event is not None:
            context.append(f"event={event}")
        if task_id is not None:
            context.append(f"task={task_id!r}")
        suffix = f" [{', '.join(context)}]" if context else ""
        super().__init__(message + suffix)
        self.time = time
        self.event = event
        self.task_id = task_id


class CapacityExceededError(ScheduleError, InvariantViolationError):
    """More processors were used at some instant than the platform has."""


class PrecedenceViolationError(ScheduleError, InvariantViolationError):
    """A task started before one of its predecessors completed."""


class TaskAbortedError(SimulationError):
    """A task exhausted its retry budget after repeated processor failures."""

    def __init__(self, message: str, *, task_id: object | None = None, attempts: int | None = None) -> None:
        super().__init__(message)
        self.task_id = task_id
        self.attempts = attempts


class BatchUnsupportedError(SimulationError):
    """The batched SoA engine cannot simulate this run configuration.

    Raised by :func:`repro.batch.run_batch` when a run uses a feature
    outside the vectorized engine's contract (today: an allocator that
    reads the live free count).  The reference engine simulates every
    configuration.  ``feature`` names the unsupported capability.
    """

    def __init__(self, message: str, *, feature: str | None = None) -> None:
        super().__init__(message)
        self.feature = feature


class AllocationError(ReproError):
    """No feasible processor allocation exists for a task."""


class FittingError(ReproError):
    """A speedup model could not be fitted to the provided samples."""


class ExperimentFailedError(ReproError, RuntimeError):
    """An experiment run raised inside a campaign worker.

    Subclasses ``RuntimeError`` for backwards compatibility with callers
    that caught the executor's former bare ``RuntimeError`` wrapper.
    """


# ----------------------------------------------------------------------
# Scheduler-as-a-service errors (repro.service)
# ----------------------------------------------------------------------
class ServiceError(ReproError):
    """Base class of every scheduler-service failure."""

    #: Wire error code sent to clients (subclasses override).
    code: str = "SERVICE_ERROR"


class ProtocolError(ServiceError):
    """A request violated the JSON-lines wire protocol."""

    code = "MALFORMED"


class AdmissionRejected(ServiceError):
    """The service refused to admit a session or mutation.

    ``retry_after`` (seconds, wall clock) is a backpressure hint: ``None``
    means the rejection is permanent for this session, a number invites
    the client to retry once load drains.
    """

    code = "ADMISSION_REJECTED"

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QuotaExceeded(AdmissionRejected):
    """A per-tenant quota (in-flight tasks, processors, sessions) was hit."""

    code = "QUOTA_EXCEEDED"


class DeadlineExceeded(ServiceError):
    """A request or session overran its deadline and was cancelled."""

    code = "DEADLINE_EXCEEDED"


class SessionClosed(ServiceError):
    """An operation arrived on a session that is no longer open."""

    code = "SESSION_CLOSED"


class JournalCorruptError(ServiceError):
    """The write-ahead journal failed validation during recovery."""

    code = "JOURNAL_CORRUPT"
