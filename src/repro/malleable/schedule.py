"""Schedules with piecewise-constant (malleable) allocations.

A malleable task's allocation may change at event boundaries.  Execution
progresses uniformly: on ``p`` processors a task completes work at rate
:math:`1/t(p)` of its total, so a segment of duration ``dur`` contributes
``dur / t(p)`` progress and a task is complete when its progress reaches 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.exceptions import CapacityExceededError, ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.sim import feasibility
from repro.types import TaskId, Time
from repro.util.validation import check_positive_int

__all__ = ["TaskSegment", "MalleableSchedule"]


@dataclass(frozen=True)
class TaskSegment:
    """One constant-allocation stretch of a task's execution."""

    task_id: TaskId
    start: Time
    end: Time
    procs: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ScheduleError(
                f"segment of {self.task_id!r}: end {self.end} before start {self.start}"
            )
        if self.procs < 1:
            raise ScheduleError(
                f"segment of {self.task_id!r}: procs must be >= 1, got {self.procs}"
            )

    @property
    def duration(self) -> Time:
        return self.end - self.start


class MalleableSchedule:
    """A malleable schedule: per-task sequences of allocation segments."""

    def __init__(self, P: int) -> None:
        self.P = check_positive_int(P, "P")
        self._segments: dict[TaskId, list[TaskSegment]] = {}

    def add_segment(self, task_id: TaskId, start: Time, end: Time, procs: int) -> None:
        """Append one segment; segments of a task must be time-ordered."""
        if procs > self.P:
            raise CapacityExceededError(
                f"segment of {task_id!r} uses {procs} > P={self.P} processors"
            )
        segment = TaskSegment(task_id, start, end, procs)
        segments = self._segments.setdefault(task_id, [])
        if segments and start < segments[-1].end - feasibility.slack(segments[-1].end):
            raise ScheduleError(
                f"segments of {task_id!r} overlap or run backwards"
            )
        segments.append(segment)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._segments

    def __iter__(self) -> Iterator[TaskSegment]:
        for segments in self._segments.values():
            yield from segments

    def segments(self, task_id: TaskId) -> list[TaskSegment]:
        """All segments of one task, in execution order."""
        try:
            return list(self._segments[task_id])
        except KeyError:
            raise ScheduleError(f"task {task_id!r} not in schedule") from None

    def start(self, task_id: TaskId) -> Time:
        """First instant the task runs."""
        return self.segments(task_id)[0].start

    def end(self, task_id: TaskId) -> Time:
        """Last instant the task runs (its completion)."""
        return self.segments(task_id)[-1].end

    def makespan(self) -> Time:
        """Completion of the last segment (0 when empty)."""
        return max((s.end for s in self), default=0.0)

    def total_area(self) -> float:
        """Processor-time product over all segments."""
        return sum(s.duration * s.procs for s in self)

    def n_reallocations(self) -> int:
        """Total allocation changes across tasks (segments minus tasks)."""
        return sum(max(len(s) - 1, 0) for s in self._segments.values())

    def utilization_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`repro.sim.Schedule.utilization_profile`, per segment."""
        return feasibility.busy_profile([s for s in self if s.duration > 0])

    # ------------------------------------------------------------------
    def validate(self, graph: TaskGraph | None = None) -> None:
        """Feasibility (:mod:`repro.sim.feasibility`) + work conservation.

        * capacity: never more than ``P`` processors busy (sliver-tolerant);
        * precedence (with ``graph``): a task's first segment starts no
          earlier than every predecessor's completion;
        * work conservation (with ``graph``): each task's summed progress
          ``sum(duration / t(procs))`` equals 1.
        """
        feasibility.check_capacity(list(self), ((0.0, self.P),), self.P)
        if graph is None:
            return
        hulls = {  # each task from its first start to its completion
            t: TaskSegment(t, segs[0].start, segs[-1].end, segs[0].procs)
            for t, segs in self._segments.items()
        }
        feasibility.check_precedence(graph, hulls, self.makespan())
        for task_id in graph:
            model = graph.task(task_id).model
            progress = sum(
                s.duration / model.time(s.procs) for s in self._segments[task_id]
            )
            # Looser than the time slack: progress sums one float ratio per
            # segment, and the rounding of many segments accumulates.
            if abs(progress - 1.0) > 1e-6:
                raise ScheduleError(
                    f"task {task_id!r}: total progress {progress:.6g} != 1"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MalleableSchedule(P={self.P}, tasks={len(self)}, "
            f"makespan={self.makespan():.6g})"
        )
