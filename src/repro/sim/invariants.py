"""Runtime invariant checking for the discrete-event engine.

Fault injection, dynamic capacity, and retry policies multiply the engine's
state transitions; this module is the safety net that catches engine bugs
the moment they happen instead of letting them surface as silently wrong
makespans.  Two layers:

* :class:`InvariantChecker` — an *online* monitor the engine feeds after
  every event (reveal / start / kill / complete / capacity change).  Each
  hook validates the transition and raises a structured
  :class:`~repro.exceptions.InvariantViolationError` with the simulated
  time, event kind, and task id on any inconsistency.
* :func:`validate_result` — a *post-hoc* validator (the ``check_schedule``
  idiom) that replays a finished run's attempt log against its capacity
  timeline: attempts never overlap themselves, busy processors never
  exceed live capacity, allocations stay in :math:`[1, P_t]`, and — given
  the realized graph — precedence holds.

Invariants enforced online:

1. simulated time is non-decreasing;
2. a task starts only after it was revealed, at most once concurrently,
   and never after it completed;
3. every allocation lies in ``[1, P_t]`` for the *live* capacity
   :math:`P_t` at start time;
4. busy processors never exceed live capacity;
5. kills and completions refer to running attempts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.exceptions import InvariantViolationError
from repro.graph.taskgraph import TaskGraph
from repro.types import TaskId, Time

if TYPE_CHECKING:  # avoid the engine <-> invariants import cycle at runtime
    from repro.sim.engine import SimulationResult

__all__ = ["InvariantChecker", "validate_result"]


@dataclass
class _RunningAttempt:
    start: Time
    procs: int


class InvariantChecker:
    """Online monitor of the engine's per-event invariants.

    The engine calls one hook per state transition; any violation raises
    :class:`~repro.exceptions.InvariantViolationError` immediately, with
    full event context.  The checker is engine-agnostic: it only sees the
    event stream, so it cross-checks the engine rather than trusting it.
    """

    def __init__(self, P: int) -> None:
        self.P = P
        self.capacity = P
        self.used = 0
        self.now: Time = 0.0
        self.events_checked = 0
        self._running: dict[TaskId, _RunningAttempt] = {}
        self._revealed: dict[TaskId, Time] = {}
        self._completed: set[TaskId] = set()

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def on_reveal(self, time: Time, task_id: TaskId) -> None:
        self._advance(time, "reveal", task_id)
        if task_id in self._revealed:
            raise InvariantViolationError(
                "task revealed twice", time=time, event="reveal", task_id=task_id
            )
        self._revealed[task_id] = time

    def on_start(self, time: Time, task_id: TaskId, procs: int) -> None:
        self._advance(time, "start", task_id)
        if task_id not in self._revealed:
            raise InvariantViolationError(
                "task started before being revealed",
                time=time,
                event="start",
                task_id=task_id,
            )
        if task_id in self._completed:
            raise InvariantViolationError(
                "task started after completing",
                time=time,
                event="start",
                task_id=task_id,
            )
        if task_id in self._running:
            raise InvariantViolationError(
                "task started while already running (self-overlap)",
                time=time,
                event="start",
                task_id=task_id,
            )
        if not 1 <= procs <= self.capacity:
            raise InvariantViolationError(
                f"allocation {procs} outside [1, P_t={self.capacity}]",
                time=time,
                event="start",
                task_id=task_id,
            )
        if self.used + procs > self.capacity:
            raise InvariantViolationError(
                f"{self.used} + {procs} busy processors would exceed live "
                f"capacity {self.capacity}",
                time=time,
                event="start",
                task_id=task_id,
            )
        self.used += procs
        self._running[task_id] = _RunningAttempt(time, procs)

    def on_kill(self, time: Time, task_id: TaskId) -> None:
        self._advance(time, "kill", task_id)
        attempt = self._running.pop(task_id, None)
        if attempt is None:
            raise InvariantViolationError(
                "kill of a task that is not running",
                time=time,
                event="kill",
                task_id=task_id,
            )
        self.used -= attempt.procs

    def on_complete(self, time: Time, task_id: TaskId) -> None:
        self._advance(time, "complete", task_id)
        attempt = self._running.pop(task_id, None)
        if attempt is None:
            raise InvariantViolationError(
                "completion of a task that is not running",
                time=time,
                event="complete",
                task_id=task_id,
            )
        self.used -= attempt.procs
        self._completed.add(task_id)

    def on_capacity(self, time: Time, capacity: int) -> None:
        self._advance(time, "capacity")
        if not 0 <= capacity <= self.P:
            raise InvariantViolationError(
                f"live capacity {capacity} outside [0, P={self.P}]",
                time=time,
                event="capacity",
            )
        if self.used > capacity:
            raise InvariantViolationError(
                f"{self.used} processors busy after capacity dropped to "
                f"{capacity}: victims were not killed",
                time=time,
                event="capacity",
            )
        self.capacity = capacity

    def on_end(self, time: Time) -> None:
        """Final check when the engine believes the run is over."""
        self._advance(time, "end")
        if self._running:
            stuck = sorted(map(repr, self._running))[:10]
            raise InvariantViolationError(
                f"run ended with attempts still running: {stuck}",
                time=time,
                event="end",
            )
        if self.used != 0:
            raise InvariantViolationError(
                f"run ended with {self.used} processors still marked busy",
                time=time,
                event="end",
            )


# ----------------------------------------------------------------------
# Post-hoc validation (the check_schedule idiom)
# ----------------------------------------------------------------------
def validate_result(
    result: "SimulationResult",
    graph: TaskGraph | None = None,
    *,
    rtol: float = 1e-9,
    check_durations: bool = False,
) -> None:
    """Validate a finished :class:`~repro.sim.engine.SimulationResult`.

    Replays the attempt log against the capacity timeline and raises
    :class:`~repro.exceptions.InvariantViolationError` on the first
    violation.  Falls back to the schedule entries (one attempt each, full
    capacity) when the run recorded no telemetry, so it is safe to call on
    any result.

    ``check_durations`` defaults to ``False`` because checkpoint/restart
    retries legitimately run shorter than ``model.time(procs)``.
    """
    schedule = result.schedule
    P = schedule.P
    attempts = list(result.attempt_log)
    if not attempts:
        from repro.sim.engine import AttemptRecord

        attempts = [
            AttemptRecord(e.task_id, 1, e.start, e.end, e.procs, True)
            for e in schedule
        ]
    timeline = list(result.capacity_timeline) or [(0.0, P)]

    span = max((a.end for a in attempts), default=0.0)
    tol = rtol * max(1.0, span)

    # -- per-attempt sanity and self-overlap ---------------------------
    by_task: dict[TaskId, list] = {}
    for a in attempts:
        if a.end < a.start:
            raise InvariantViolationError(
                f"attempt {a.attempt} ends before it starts",
                time=a.start,
                event="replay",
                task_id=a.task_id,
            )
        if a.procs < 1:
            raise InvariantViolationError(
                f"attempt {a.attempt} uses {a.procs} processors",
                time=a.start,
                event="replay",
                task_id=a.task_id,
            )
        by_task.setdefault(a.task_id, []).append(a)
    for task_id, records in by_task.items():
        records.sort(key=lambda a: (a.start, a.attempt))
        completed = [a for a in records if a.completed]
        if len(completed) > 1:
            raise InvariantViolationError(
                "task completed more than once",
                event="replay",
                task_id=task_id,
            )
        for earlier, later in zip(records, records[1:], strict=False):
            if later.start < earlier.end - tol:
                raise InvariantViolationError(
                    f"attempt {later.attempt} starts at {later.start:.6g} "
                    f"before attempt {earlier.attempt} ends at {earlier.end:.6g}",
                    time=later.start,
                    event="replay",
                    task_id=task_id,
                )
        if completed:
            entry = schedule[task_id]
            final = completed[0]
            if (
                abs(entry.start - final.start) > tol
                or abs(entry.end - final.end) > tol
                or entry.procs != final.procs
            ):
                raise InvariantViolationError(
                    "schedule entry disagrees with the completed attempt",
                    time=final.start,
                    event="replay",
                    task_id=task_id,
                )

    # -- capacity sweep: busy <= P_t on every segment ------------------
    cap_times = np.asarray([t for t, _ in timeline], dtype=float)
    cap_values = [c for _, c in timeline]
    for c in cap_values:
        if not 0 <= c <= P:
            raise InvariantViolationError(
                f"capacity {c} outside [0, P={P}]", event="replay"
            )
    a_start = np.asarray([a.start for a in attempts], dtype=float)
    a_end = np.asarray([a.end for a in attempts], dtype=float)
    a_procs = np.asarray([a.procs for a in attempts], dtype=np.int64)
    points = sorted(set(a_start.tolist()) | set(a_end.tolist()) | set(cap_times.tolist()))
    if len(points) > 1:
        breakpoints = np.asarray(points, dtype=float)
        # Difference array: each attempt adds its processors on the
        # segments [start, end) and the prefix sum yields the busy count.
        delta = np.zeros(len(points), dtype=np.int64)
        np.add.at(delta, np.searchsorted(breakpoints, a_start), a_procs)
        np.subtract.at(delta, np.searchsorted(breakpoints, a_end), a_procs)
        usage = np.cumsum(delta)[:-1]
        cap_idx = np.searchsorted(cap_times, breakpoints[:-1], side="right") - 1
        cap_idx = np.clip(cap_idx, 0, len(cap_values) - 1)
        capacity = np.asarray(cap_values, dtype=np.int64)[cap_idx]
        durations = np.diff(breakpoints)
        bad = (usage > capacity) & (durations > tol)
        if bad.any():
            idx = int(np.argmax(bad))
            raise InvariantViolationError(
                f"{int(usage[idx])} processors busy in "
                f"[{breakpoints[idx]:.6g}, {breakpoints[idx + 1]:.6g}) with live "
                f"capacity {int(capacity[idx])}",
                time=float(breakpoints[idx]),
                event="replay",
            )

    # -- allocations within live capacity at start ---------------------
    live_idx = np.maximum(np.searchsorted(cap_times, a_start, side="right") - 1, 0)
    over = a_procs > np.asarray(cap_values, dtype=np.int64)[live_idx]
    if over.any():
        k = int(np.argmax(over))
        a = attempts[k]
        live = cap_values[int(live_idx[k])]
        raise InvariantViolationError(
            f"attempt {a.attempt} allocated {a.procs} > live capacity {live}",
            time=a.start,
            event="replay",
            task_id=a.task_id,
        )

    # -- precedence / completeness against the realized graph ----------
    if graph is not None:
        schedule.validate(graph, rtol=rtol, check_durations=check_durations)
