"""Earliest-Completion-Time (ECT) scheduling for moldable tasks.

The heuristic of Wang & Cheng [21] (a (3 - 2/P)-approximation for the
roofline model, offline): whenever processors free up, each ready task
considers *every* allocation ``q`` in ``[1, p_max]`` together with the
earliest instant at which ``q`` processors will be available (given the
currently running tasks), and starts only if its completion-time-minimizing
choice is to start *now*; otherwise it waits for more processors.

This differs from list scheduling in the one way that matters: a task may
deliberately idle processors now to grab a larger allocation soon.  It is a
natural "greedy completion" comparator for the paper's algorithm, and it
works in the online reveal model (it only ever inspects ready tasks and the
running set).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.allocation import Allocation
from repro.sim.engine import SimulationResult
from repro.sim.schedule import Schedule
from repro.sim.sources import GraphSource, StaticGraphSource
from repro.types import TaskId, Time
from repro.util.validation import check_positive_int

__all__ = ["EctScheduler"]


@dataclass
class _Running:
    task_id: TaskId
    end: Time
    procs: int


class EctScheduler:
    """Earliest-completion-time scheduler over ``P`` identical processors.

    For each ready task it evaluates, for every useful allocation ``q``,
    the earliest possible completion ``s(q) + t(q)`` where ``s(q)`` is the
    first instant ``q`` processors are simultaneously free (now, or after
    some running tasks complete).  The task starts immediately only when
    starting now is its best option; ties between allocations prefer fewer
    processors (smaller area).
    """

    def __init__(self, P: int) -> None:
        self.P = check_positive_int(P, "P")

    # ------------------------------------------------------------------
    def run(self, source: GraphSource | TaskGraph) -> SimulationResult:
        """Simulate the schedule of ``source`` and return the result."""
        if isinstance(source, TaskGraph):
            source = StaticGraphSource(source)

        schedule = Schedule(self.P)
        allocations: dict[TaskId, Allocation] = {}
        ready: list[Task] = []
        running: list[_Running] = []
        events: list[tuple[Time, int, int]] = []  # (end, seq, index into running)
        seq = itertools.count()
        free = self.P
        now: Time = 0.0

        # Per-run table of each ready task's (p_max, (t(1), ..., t(p_max))),
        # built once per distinct model cache_key (once per task when the
        # model has none): equal keys mean the same time function, so the
        # choices below read exactly the floats ``model.time`` returns.
        curves: dict[object, tuple[int, tuple[Time, ...]]] = {}
        task_curve: dict[TaskId, tuple[int, tuple[Time, ...]]] = {}

        def reveal(tasks: list[Task]) -> None:
            for task in tasks:
                model = task.model
                key = model.cache_key()
                curve: tuple[int, tuple[Time, ...]] | None = None
                if key is not None:
                    try:
                        curve = curves.get(key)
                    except TypeError:  # unhashable key: no sharing provable
                        key = None
                if curve is None:
                    p_max = model.max_useful_processors(self.P)
                    curve = (p_max, tuple(model.time(q) for q in range(1, p_max + 1)))
                    if key is not None:
                        curves[key] = curve
                task_curve[task.id] = curve
                ready.append(task)

        def availability_steps() -> list[tuple[Time, int]]:
            """Future (time, cumulative extra processors) from running tasks."""
            steps: list[tuple[Time, int]] = []
            total = 0
            for r in sorted(running, key=lambda r: r.end):
                total += r.procs
                steps.append((r.end, total))
            return steps

        def best_choice(
            task: Task, steps: list[tuple[Time, int]]
        ) -> tuple[Time, int, Time]:
            """Return (completion, q, start) minimizing completion time."""
            p_max, times = task_curve[task.id]
            best: tuple[Time, int, Time] | None = None
            for q in range(1, p_max + 1):
                if q <= free:
                    start = now
                else:
                    need = q - free
                    start = None
                    for end, extra in steps:
                        if extra >= need:
                            start = end
                            break
                    if start is None:  # pragma: no cover - q <= P always frees
                        continue
                completion = start + times[q - 1]
                key = (completion, q, start)
                if best is None or key < best:
                    best = key
            if best is None:
                raise SimulationError(
                    f"task {task.id!r} cannot be scheduled on P={self.P}"
                )
            return best

        def start_tasks() -> None:
            nonlocal free
            progress = True
            while progress:
                progress = False
                # The running set only changes on a start, which ends the
                # sweep: one availability profile serves the whole sweep.
                steps = availability_steps()
                for task in list(ready):
                    completion, q, start = best_choice(task, steps)
                    if start <= now and q <= free:
                        ready.remove(task)
                        free -= q
                        allocations[task.id] = Allocation(initial=q, final=q)
                        schedule.add(task.id, now, completion, q, tag=task.tag)
                        record = _Running(task.id, completion, q)
                        running.append(record)
                        heapq.heappush(events, (completion, next(seq), id(record)))
                        progress = True
                        # Availability changed: re-evaluate everyone.
                        break

        reveal(source.initial_tasks())
        start_tasks()

        while events:
            now = events[0][0]
            while events and events[0][0] == now:
                heapq.heappop(events)
            finished = [r for r in running if r.end <= now]
            running[:] = [r for r in running if r.end > now]
            for record in finished:
                free += record.procs
            for record in finished:
                reveal(source.on_complete(record.task_id))
            start_tasks()

        if ready:
            raise SimulationError(
                f"deadlock: tasks {[t.id for t in ready[:10]]!r} never started"
            )
        if not source.is_exhausted():
            raise SimulationError("source still holds unrevealed tasks")
        return SimulationResult(schedule, allocations, source.realized_graph())
