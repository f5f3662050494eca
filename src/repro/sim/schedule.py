"""Schedule recording and feasibility validation.

A :class:`Schedule` is the ground truth every scheduler in this library is
judged on: it records, for each task, its start time, completion time, and
(fixed, moldable) processor allocation.  :meth:`Schedule.validate` checks
the three feasibility conditions of the problem statement — bounded
capacity at every instant, precedence constraints, and non-preemptive
execution (each task appears exactly once with one allocation), with the
rules of :mod:`repro.sim.feasibility`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.exceptions import CapacityExceededError, ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.sim import feasibility
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
        return feasibility.busy_profile(self._entries)

    def peak_utilization(self) -> int:
        """Maximum number of simultaneously busy processors."""
        _, usage = self.utilization_profile()
        return int(usage.max()) if usage.size else 0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self, graph: TaskGraph | None = None, *, check_durations: bool = True
    ) -> None:
        """Check schedule feasibility; raise a :class:`ScheduleError` subclass.

        Applies the rules of :mod:`repro.sim.feasibility`: at most ``P``
        processors busy at every instant; given ``graph``, every task of
        the graph appears exactly once and starts no earlier than its
        predecessors' completions, and (with ``check_durations``) each
        task's duration equals its model's time at its allocation.
        """
        feasibility.check_capacity(self._entries, ((0.0, self.P),), self.P)
        if graph is None:
            return
        feasibility.check_precedence(graph, self._by_task, self.makespan())
        if check_durations:
            feasibility.check_durations(graph, self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(P={self.P}, tasks={len(self)}, makespan={self.makespan():.6g})"
