"""Feasibility rules: the one checker behind every schedule, run and stream.

Algorithm 1's guarantees (Lemmas 2–5) hold only for feasible schedules.
Each rule is enforced here once, with one tolerance (:func:`slack`):
lifecycle (reveal before start, no self-overlap, no start after
completion, kills and completions of running attempts, every kill retried
or aborted, attempts ``1..k`` in start order), non-decreasing time,
capacity (busy processors never exceed the live :math:`P_t`), allocation
in ``[1, P_t]``, precedence and completeness against a graph, and
durations equal to ``model.time(procs)``.

:class:`InvariantChecker` is the online side: producers call one hook per
transition (untraced runs build no event objects), and it is a
:class:`~repro.obs.events.Tracer`, so ``MultiTracer(checker, sink)``
checks any tier's traced stream.  The ``check_*`` functions are the
post-hoc side, under :func:`validate_result`, ``Schedule.validate``,
``MalleableSchedule.validate`` and ``verify_run``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, NoReturn, Sequence

import numpy as np

from repro.exceptions import (
    CapacityExceededError,
    InvariantViolationError,
    PrecedenceViolationError,
    ScheduleError,
)
from repro.graph.taskgraph import TaskGraph
from repro.obs.events import CapacityChanged, SimEvent, TaskCompleted, TaskRevealed, TaskStarted
from repro.types import TaskId, Time

if TYPE_CHECKING:  # avoid the engine <-> feasibility import cycle at runtime
    from repro.sim.engine import AttemptRecord, SimulationResult
    from repro.sim.schedule import Schedule

__all__ = [
    "RTOL",
    "slack",
    "InvariantChecker",
    "busy_profile",
    "check_capacity",
    "check_lifecycle",
    "check_precedence",
    "check_durations",
    "validate_result",
]

#: Relative tolerance of every feasibility comparison.  Chained float
#: arithmetic (``t0 + b*w + w`` vs ``t0 + (b+1)*w``) leaves slivers of a
#: few ulp between back-to-back attempts; they are not double-bookings.
RTOL = 1e-9


def slack(horizon: Time) -> Time:
    """Absolute time slack on a horizon (makespan, duration) of ``horizon``."""
    return RTOL * max(1.0, horizon)


#: ``InvariantChecker._attempts`` value of a completed task.
_COMPLETED = -1


class InvariantChecker:
    """Online monitor of the feasibility rules, fed one transition at a time.

    A violation raises :class:`~repro.exceptions.InvariantViolationError`
    (capacity: its subclass) with the simulated time, event and task id.
    """

    enabled: bool = True

    def __init__(self, P: int) -> None:
        self.P = P
        self.capacity = P
        self.used = 0
        self.now: Time = 0.0
        self.events_checked = 0
        # revealed -> attempts started, or _COMPLETED once it completed
        self._attempts: dict[TaskId, int] = {}
        self._running: dict[TaskId, int] = {}  # running -> processors
        self._killed: set[TaskId] = set()  # last attempt killed, not restarted

    def _advance(self, time: Time, event: str, task_id: TaskId | None = None) -> None:
        if time < self.now:
            raise InvariantViolationError(
                f"time moved backwards: {time:.6g} after {self.now:.6g}",
                time=time,
                event=event,
                task_id=task_id,
            )
        self.now = time
        self.events_checked += 1

    def on_reveal(self, time: Time, task_id: TaskId) -> None:
        self._advance(time, "reveal", task_id)
        if task_id in self._attempts:
            raise InvariantViolationError(
                "task revealed twice", time=time, event="reveal", task_id=task_id
            )
        self._attempts[task_id] = 0

    def on_start(self, time: Time, task_id: TaskId, procs: int, attempt: int = 1) -> None:
        """An attempt starts; ``attempt`` must be the task's next number."""
        self._advance(time, "start", task_id)
        started = self._attempts.get(task_id)
        if started is None:
            problem = "task started before being revealed"
        elif started == _COMPLETED:
            problem = "task started after completing"
        elif task_id in self._running:
            problem = "task started while already running (self-overlap)"
        elif attempt != started + 1:
            problem = f"attempt {attempt} started as attempt {started + 1}"
        elif not 1 <= procs <= self.capacity:
            problem = f"allocation {procs} outside [1, P_t={self.capacity}]"
        elif self.used + procs > self.capacity:
            raise CapacityExceededError(
                f"{self.used} + {procs} busy processors would exceed live "
                f"capacity {self.capacity}",
                time=time,
                event="start",
                task_id=task_id,
            )
        else:
            self.used += procs
            self._running[task_id] = procs
            self._attempts[task_id] = started + 1
            self._killed.discard(task_id)
            return
        raise InvariantViolationError(problem, time=time, event="start", task_id=task_id)

    def _stop(self, time: Time, task_id: TaskId, event: str) -> None:
        self._advance(time, event, task_id)
        procs = self._running.pop(task_id, None)
        if procs is None:
            raise InvariantViolationError(
                f"{event}: task is not running", time=time, event=event, task_id=task_id
            )
        self.used -= procs

    def on_kill(self, time: Time, task_id: TaskId) -> None:
        self._stop(time, task_id, "kill")
        self._killed.add(task_id)

    def on_complete(self, time: Time, task_id: TaskId) -> None:
        self._stop(time, task_id, "complete")
        self._attempts[task_id] = _COMPLETED

    def on_capacity(self, time: Time, capacity: int) -> None:
        self._advance(time, "capacity")
        if not 0 <= capacity <= self.P:
            raise InvariantViolationError(
                f"live capacity {capacity} outside [0, P={self.P}]", time=time, event="capacity"
            )
        if self.used > capacity:
            raise CapacityExceededError(
                f"{self.used} processors busy after capacity dropped to "
                f"{capacity}: victims were not killed",
                time=time,
                event="capacity",
            )
        self.capacity = capacity

    def forget(self, task_ids: Iterable[TaskId]) -> None:
        """Drop finished or aborted (the typed abort of a last kill) tasks.

        Their ids can then be reused: the service scopes task identities to
        a session and forgets a tenant's tasks when its run ends.
        """
        attempts = self._attempts
        before = len(attempts)
        for task_id in task_ids:
            if task_id in self._running:
                raise InvariantViolationError(
                    "running task forgotten", time=self.now, event="forget", task_id=task_id
                )
            attempts.pop(task_id, None)
            self._killed.discard(task_id)
        # Hash tables keep their peak size through deletions.  Once half
        # the entries are gone, copy the live ones into right-sized tables
        # (amortized O(1) per forgotten task).
        if 2 * len(attempts) <= before:
            self._attempts = dict(attempts)
            self._killed = set(self._killed)

    def on_end(self, time: Time) -> None:
        """Final check when the producer believes the run is over."""
        self._advance(time, "end")
        if self._running:
            problem = f"attempts still running: {sorted(map(repr, self._running))[:10]}"
        elif self.used != 0:
            problem = f"{self.used} processors still marked busy"
        elif self._killed:
            problem = f"killed attempts never retried: {sorted(map(repr, self._killed))[:10]}"
        else:
            return
        raise InvariantViolationError(f"run ended with {problem}", time=time, event="end")

    # -- Tracer protocol ---------------------------------------------------
    def emit(self, event: SimEvent) -> None:
        """Check one event of a traced stream (other event types pass)."""
        kind = type(event)
        if kind is TaskStarted:
            self.on_start(event.time, event.task_id, event.procs, event.attempt)
        elif kind is TaskCompleted:
            stop = self.on_complete if event.completed else self.on_kill
            stop(event.time, event.task_id)
        elif kind is TaskRevealed:
            self.on_reveal(event.time, event.task_id)
        elif kind is CapacityChanged:
            self.on_capacity(event.time, event.capacity)

    def close(self) -> None:
        """Nothing to flush; call :meth:`on_end` to check a finished run."""


# ----------------------------------------------------------------------
# Post-hoc rules over finished spans
# ----------------------------------------------------------------------
def busy_profile(
    spans: Sequence[Any], extra_times: Sequence[Time] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """``(breakpoints, usage)``: processors busy on each ``[b_i, b_{i+1})``.

    A span is anything with ``task_id``, ``start``, ``end`` and ``procs``
    (attempt record, schedule entry, malleable segment).  ``breakpoints``
    are the distinct span times (and ``extra_times``).
    """
    starts, ends, procs = _columns(spans)
    points = sorted({*starts.tolist(), *ends.tolist(), *extra_times})
    if not points:
        return np.array([0.0]), np.array([], dtype=np.int64)
    breakpoints = np.asarray(points, dtype=float)
    # Difference array: each span adds its processors at its start and
    # removes them at its end; the prefix sum is the busy count.
    n = len(breakpoints)
    delta = np.bincount(np.searchsorted(breakpoints, starts), procs, n) - np.bincount(
        np.searchsorted(breakpoints, ends), procs, n
    )
    return breakpoints, np.cumsum(delta)[:-1].astype(np.int64)


def _columns(spans: Sequence[Any]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    starts = np.asarray([s.start for s in spans], dtype=float)
    ends = np.asarray([s.end for s in spans], dtype=float)
    return starts, ends, np.asarray([s.procs for s in spans], dtype=np.int64)


def check_capacity(spans: Sequence[Any], timeline: Sequence[tuple[Time, int]], P: int) -> None:
    """Capacity and allocation rules over finished ``spans``, vectorised.

    The live capacity is the step function ``timeline`` (``[(time, P_t),
    ...]``); busy processors may exceed it only on slivers shorter than
    :func:`slack`.
    """

    def fail(k: int, message: str, cls: type[InvariantViolationError]) -> NoReturn:
        s = spans[k]
        number = getattr(s, "attempt", 1)
        raise cls(f"attempt {number} {message}", time=s.start, event="replay", task_id=s.task_id)

    starts, ends, procs = _columns(spans)
    if (ends < starts).any():
        fail(int(np.argmax(ends < starts)), "ends before it starts", InvariantViolationError)
    if (procs < 1).any():
        k = int(np.argmax(procs < 1))
        fail(k, f"uses {spans[k].procs} processors", InvariantViolationError)
    cap_times = np.asarray([t for t, _ in timeline], dtype=float)
    cap_values = np.asarray([c for _, c in timeline], dtype=np.int64)
    for c in cap_values.tolist():
        if not 0 <= c <= P:
            raise InvariantViolationError(f"capacity {c} outside [0, P={P}]", event="replay")
    breakpoints, usage = busy_profile(spans, cap_times.tolist())
    cap_idx = np.searchsorted(cap_times, breakpoints[:-1], side="right") - 1
    capacity = cap_values[np.clip(cap_idx, 0, len(cap_values) - 1)]
    bad = (usage > capacity) & (np.diff(breakpoints) > slack(float(ends.max(initial=0.0))))
    if bad.any():
        i = int(np.argmax(bad))
        raise CapacityExceededError(
            f"{int(usage[i])} processors busy in [{breakpoints[i]:.6g}, "
            f"{breakpoints[i + 1]:.6g}) with live capacity {int(capacity[i])}",
            time=float(breakpoints[i]),
            event="replay",
        )
    live = cap_values[np.maximum(np.searchsorted(cap_times, starts, side="right") - 1, 0)]
    if (procs > live).any():
        k = int(np.argmax(procs > live))
        fail(k, f"allocated {spans[k].procs} > live capacity {live[k]}", CapacityExceededError)


def check_lifecycle(attempts: Sequence[AttemptRecord], schedule: Schedule) -> None:
    """Lifecycle rules over an attempt log, and its agreement with ``schedule``.

    Per task, attempts are numbered ``1..k`` in start order, never overlap
    and end with the one completed attempt, which is the task's schedule
    entry; every schedule entry has a completed attempt.
    """
    tol = slack(max((a.end for a in attempts), default=0.0))
    by_task: dict[TaskId, list[AttemptRecord]] = {}
    for a in attempts:
        by_task.setdefault(a.task_id, []).append(a)
    for task_id, records in by_task.items():
        records.sort(key=lambda a: (a.start, a.attempt))
        problem = _lifecycle_problem(records, schedule, tol)
        if problem:
            raise InvariantViolationError(
                problem, time=records[-1].start, event="replay", task_id=task_id
            )
    orphans = [e for e in schedule if e.task_id not in by_task]
    if orphans:
        raise InvariantViolationError(
            "schedule entry has no completed attempt", event="replay", task_id=orphans[0].task_id
        )


def _lifecycle_problem(records: list[AttemptRecord], schedule: Schedule, tol: Time) -> str:
    """What is wrong with one task's start-ordered attempts (``""``: nothing)."""
    numbers = [a.attempt for a in records]
    if numbers != list(range(1, len(records) + 1)):
        return f"attempts {numbers} are not numbered 1..k in start order"
    for earlier, later in zip(records, records[1:], strict=False):
        if later.start < earlier.end - tol:
            return (
                f"attempt {later.attempt} starts at {later.start:.6g} "
                f"before attempt {earlier.attempt} ends at {earlier.end:.6g}"
            )
    completed = sum(1 for a in records if a.completed)
    final = records[-1]
    if completed > 1:
        return "task completed more than once"
    if not final.completed:
        if completed:
            return "task started after completing"
        return f"killed attempt {final.attempt} was never retried"
    entry = schedule[final.task_id] if final.task_id in schedule else None
    if entry is None or entry.procs != final.procs or max(
        abs(entry.start - final.start), abs(entry.end - final.end)
    ) > tol:
        return "schedule entry disagrees with the completed attempt"
    return ""


def check_precedence(graph: TaskGraph, spans: Mapping[TaskId, Any], horizon: Time) -> None:
    """Completeness and precedence against ``graph``.

    ``spans`` maps every executed task to a span from its first start to
    its completion: the tasks must be exactly the graph's, and each starts
    no earlier (up to :func:`slack`) than its predecessors end.
    """
    missing = [t for t in graph if t not in spans]
    if missing:
        raise ScheduleError(f"tasks never scheduled: {missing[:10]!r}")
    extra = [t for t in spans if t not in graph]
    if extra:
        raise ScheduleError(f"scheduled tasks not in graph: {extra[:10]!r}")
    tol = slack(horizon)
    for task_id in graph:
        start = spans[task_id].start
        for pred in graph.predecessors(task_id):
            pred_end = spans[pred].end
            if start < pred_end - tol:
                raise PrecedenceViolationError(
                    f"task {task_id!r} starts at {start:.6g} before "
                    f"predecessor {pred!r} ends at {pred_end:.6g}",
                    time=start,
                    event="replay",
                    task_id=task_id,
                )


def check_durations(graph: TaskGraph, spans: Iterable[Any]) -> None:
    """Each span runs for its model's time at its allocation."""
    for s in spans:
        expected = graph.task(s.task_id).model.time(s.procs)
        duration = s.end - s.start
        if abs(duration - expected) > slack(expected):
            raise ScheduleError(
                f"task {s.task_id!r}: duration {duration:.6g} does not "
                f"match model time {expected:.6g} on {s.procs} procs"
            )


def validate_result(
    result: SimulationResult, graph: TaskGraph | None = None, *, check_durations: bool = False
) -> None:
    """Validate a finished :class:`~repro.sim.engine.SimulationResult`.

    Replays the attempt log against the capacity timeline, then (given the
    realized ``graph``) checks the schedule's precedence, completeness and,
    optionally, durations.  A run without telemetry is checked as its
    schedule entries on the constant capacity ``P``, so this is safe to
    call on any result.  ``check_durations`` defaults to ``False`` because
    checkpoint/restart retries legitimately run shorter than
    ``model.time(procs)``.
    """
    schedule = result.schedule
    attempts = result.attempt_log or tuple(schedule)
    check_capacity(attempts, result.capacity_timeline or ((0.0, schedule.P),), schedule.P)
    if result.attempt_log:
        check_lifecycle(result.attempt_log, schedule)
    if graph is None:
        return
    # The attempt replay already bounds the schedule's entries by capacity.
    check_precedence(graph, {e.task_id: e for e in schedule}, schedule.makespan())
    if check_durations:
        _check_durations(graph, schedule)


_check_durations = check_durations  # the name validate_result's flag shadows
