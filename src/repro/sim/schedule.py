"""Schedule recording and feasibility validation.

A :class:`Schedule` is the ground truth every scheduler in this library is
judged on: it records, for each task, its start time, completion time, and
(fixed, moldable) processor allocation.  :meth:`Schedule.validate` checks
the three feasibility conditions of the problem statement — bounded
capacity at every instant, precedence constraints, and non-preemptive
execution (each task appears exactly once with one allocation).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.exceptions import (
    CapacityExceededError,
    PrecedenceViolationError,
    ScheduleError,
)
from repro.graph.taskgraph import TaskGraph
from repro.types import TaskId, Time
from repro.util.validation import check_positive_int

__all__ = ["ScheduledTask", "Schedule"]


class ScheduledTask(NamedTuple):
    """One task's placement in a schedule.

    ``initial_alloc`` records the allocation computed by Step 1 of
    Algorithm 2, before the :math:`\\lceil\\mu P\\rceil` cap; for schedulers
    without a two-step allocation it equals ``procs``.

    A lightweight named tuple: one is created per started task on the
    engine's hot path, and :meth:`Schedule.add` (the canonical
    constructor) validates the fields before building the record.
    """

    task_id: TaskId
    start: Time
    end: Time
    procs: int
    initial_alloc: int = 0
    tag: str = ""

    @property
    def duration(self) -> Time:
        """Execution time of the task under its allocation."""
        return self.end - self.start

    @property
    def area(self) -> float:
        """Processor-time product consumed by the task."""
        return self.procs * self.duration


class Schedule:
    """A complete schedule on a ``P``-processor platform."""

    def __init__(self, P: int) -> None:
        self.P = check_positive_int(P, "P")
        self._entries: list[ScheduledTask] = []
        self._by_task: dict[TaskId, ScheduledTask] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        task_id: TaskId,
        start: Time,
        end: Time,
        procs: int,
        *,
        initial_alloc: int = 0,
        tag: str = "",
    ) -> ScheduledTask:
        """Record one task placement.  Rejects duplicates and ``procs > P``."""
        if task_id in self._by_task:
            raise ScheduleError(f"task {task_id!r} scheduled twice (preemption/restart)")
        if procs > self.P:
            raise CapacityExceededError(
                f"task {task_id!r} allocated {procs} > P={self.P} processors"
            )
        if end < start:
            raise ScheduleError(f"task {task_id!r}: end {end} before start {start}")
        if procs < 1:
            raise ScheduleError(
                f"task {task_id!r}: allocation must be >= 1, got {procs}"
            )
        entry = ScheduledTask(
            task_id, start, end, procs, initial_alloc if initial_alloc else procs, tag
        )
        self._entries.append(entry)
        self._by_task[task_id] = entry
        return entry

    @classmethod
    def _from_entries(cls, P: int, entries: list[ScheduledTask]) -> Schedule:
        """Adopt ``entries`` as a schedule without re-running :meth:`add`'s checks.

        For callers that already enforce every :meth:`add` guard (unique
        ids, ``1 <= procs <= P``, ``end >= start``); the engine builds its
        whole schedule this way once the run is over.
        """
        schedule = cls(P)
        schedule._entries = entries
        schedule._by_task = {entry[0]: entry for entry in entries}
        return schedule

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._entries)

    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._by_task

    def __getitem__(self, task_id: TaskId) -> ScheduledTask:
        try:
            return self._by_task[task_id]
        except KeyError:
            raise ScheduleError(f"task {task_id!r} not in schedule") from None

    @property
    def entries(self) -> Sequence[ScheduledTask]:
        """All placements, in the order they were recorded."""
        return tuple(self._entries)

    def makespan(self) -> Time:
        """Completion time of the last task (0 for an empty schedule)."""
        return max((e.end for e in self._entries), default=0.0)

    def total_area(self) -> float:
        """Total processor-time product consumed by all tasks."""
        return sum(e.area for e in self._entries)

    def average_utilization(self) -> float:
        """Mean fraction of busy processors over the makespan."""
        span = self.makespan()
        if span == 0:
            return 0.0
        return self.total_area() / (self.P * span)

    # ------------------------------------------------------------------
    # Utilization profile
    # ------------------------------------------------------------------
    def utilization_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(breakpoints, usage)``.

        ``breakpoints`` is the sorted array of the distinct start/end times
        (length ``k + 1``); ``usage[i]`` is the number of busy processors
        in the half-open interval ``[breakpoints[i], breakpoints[i+1])``
        (length ``k``).  Tasks of zero duration contribute nothing.
        """
        if not self._entries:
            return np.array([0.0]), np.array([], dtype=np.int64)
        points = sorted({e.start for e in self._entries} | {e.end for e in self._entries})
        breakpoints = np.asarray(points, dtype=float)
        usage = np.zeros(len(points) - 1, dtype=np.int64)
        starts = np.searchsorted(breakpoints, [e.start for e in self._entries])
        ends = np.searchsorted(breakpoints, [e.end for e in self._entries])
        for entry, i0, i1 in zip(self._entries, starts, ends, strict=True):
            usage[i0:i1] += entry.procs
        return breakpoints, usage

    def peak_utilization(self) -> int:
        """Maximum number of simultaneously busy processors."""
        _, usage = self.utilization_profile()
        return int(usage.max()) if usage.size else 0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        graph: TaskGraph | None = None,
        *,
        rtol: float = 1e-9,
        check_durations: bool = True,
    ) -> None:
        """Check schedule feasibility; raise a :class:`ScheduleError` subclass.

        * Capacity: at every instant at most ``P`` processors are busy.
        * Precedence (if ``graph`` given): every task of the graph appears
          exactly once and starts no earlier than all its predecessors'
          completions (tolerance ``rtol`` relative to the makespan).
        * Durations (if ``graph`` given and ``check_durations``): each
          task's recorded duration equals its model's time at the recorded
          allocation.
        """
        breakpoints, usage = self.utilization_profile()
        if usage.size and int(usage.max()) > self.P:
            # Ignore slivers shorter than the tolerance: consecutive floats
            # like t0 + b*w + w vs t0 + (b+1)*w differ by a few ulp and can
            # momentarily "overlap" without any physical double-booking.
            tol = rtol * max(1.0, self.makespan())
            durations = np.diff(breakpoints)
            bad = (usage > self.P) & (durations > tol)
            if bad.any():
                idx = int(np.argmax(bad))
                raise CapacityExceededError(
                    f"{int(usage[idx])} processors busy in "
                    f"[{breakpoints[idx]:.6g}, {breakpoints[idx + 1]:.6g}), P={self.P}"
                )
        if graph is None:
            return
        tol = rtol * max(1.0, self.makespan())
        missing = [t for t in graph if t not in self._by_task]
        if missing:
            raise ScheduleError(f"tasks never scheduled: {missing[:10]!r}")
        extra = [t for t in self._by_task if t not in graph]
        if extra:
            raise ScheduleError(f"scheduled tasks not in graph: {extra[:10]!r}")
        for task_id in graph:
            entry = self._by_task[task_id]
            for pred in graph.predecessors(task_id):
                pred_end = self._by_task[pred].end
                if entry.start < pred_end - tol:
                    raise PrecedenceViolationError(
                        f"task {task_id!r} starts at {entry.start:.6g} before "
                        f"predecessor {pred!r} ends at {pred_end:.6g}"
                    )
            if check_durations:
                expected = graph.task(task_id).model.time(entry.procs)
                if abs(entry.duration - expected) > rtol * max(1.0, expected):
                    raise ScheduleError(
                        f"task {task_id!r}: duration {entry.duration:.6g} does not "
                        f"match model time {expected:.6g} on {entry.procs} procs"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(P={self.P}, tasks={len(self)}, makespan={self.makespan():.6g})"
