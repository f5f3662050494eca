"""Graph sources: how tasks are revealed to an online scheduler.

Section 3.1 of the paper: "a task becomes available only when all of its
predecessors have been completed", and only then does the scheduler learn
its execution-time parameters.  The :class:`GraphSource` protocol captures
exactly this interaction, which lets the same engine drive

* static graphs whose structure is merely *hidden* from the scheduler
  (:class:`StaticGraphSource`), and
* truly adaptive adversaries that decide the graph's structure online
  (:class:`repro.adversary.arbitrary.AdaptiveChainSource`, used by the
  Theorem-9 lower bound).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.exceptions import SimulationError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.types import TaskId

if TYPE_CHECKING:
    from collections.abc import Iterable

    from repro.speedup.base import SpeedupModel

__all__ = ["GraphSource", "StaticGraphSource", "ReleasedTaskSource"]

#: ``StaticGraphSource`` marks completed tasks with this unmet-predecessor count.
_COMPLETED = -1


@runtime_checkable
class GraphSource(Protocol):
    """What an online scheduler is allowed to see of a task graph."""

    def initial_tasks(self) -> list[Task]:
        """Tasks available at time 0 (no predecessors)."""
        ...

    def on_complete(self, task_id: TaskId) -> list[Task]:
        """Report a completion; return tasks that just became available."""
        ...

    def is_exhausted(self) -> bool:
        """True when every task has been revealed *and* completed."""
        ...

    def realized_graph(self) -> TaskGraph:
        """The full graph, as realized by the end of the run.

        For static sources this is the original graph; adaptive adversaries
        build it on the fly.  Only meaningful once :meth:`is_exhausted`.
        """
        ...


class StaticGraphSource:
    """Adapter exposing a fixed :class:`TaskGraph` through the online protocol.

    Tasks become available when their last predecessor completes; ties are
    broken by graph insertion order, which generators use to control the
    reveal order of simultaneously available tasks.

    The adjacency comes from
    :meth:`~repro.graph.taskgraph.TaskGraph.compiled`, one snapshot per
    graph version shared by every source over that version (successors
    already sorted in reveal order), so a run copies only the in-degree
    map.  Each source keeps its own reveal and completion state in that
    copy: a task's count of unmet predecessors drops to 0 on reveal and is
    set to -1 on completion.
    """

    def __init__(self, graph: TaskGraph) -> None:
        self._graph = graph
        compiled = graph.compiled()
        self._tasks = compiled.tasks
        self._roots = compiled.roots
        self._succ = compiled.successors
        self._pending: dict[TaskId, int] = dict(compiled.in_degree)
        self._started = False
        self._done = 0

    def initial_tasks(self) -> list[Task]:
        self._started = True
        return list(self._roots)

    def on_complete(self, task_id: TaskId) -> list[Task]:
        pending = self._pending
        left = pending.get(task_id)
        if left != 0 or not self._started:
            if left == _COMPLETED:
                raise SimulationError(f"task {task_id!r} completed twice")
            raise SimulationError(f"completion of unrevealed task {task_id!r}")
        pending[task_id] = _COMPLETED
        self._done += 1
        newly_ready: list[Task] = []
        for succ in self._succ[task_id]:
            left = pending[succ] - 1
            pending[succ] = left
            if not left:
                newly_ready.append(self._tasks[succ])
        return newly_ready

    def is_exhausted(self) -> bool:
        return self._done == len(self._tasks)

    def realized_graph(self) -> TaskGraph:
        return self._graph


class ReleasedTaskSource:
    """Independent tasks released over time (the setting of Ye et al. [23]).

    Each task carries a release time; the scheduler learns of a task (and
    its speedup model) only when its release time arrives.  There are no
    precedence constraints.  The engine detects the two extra methods
    (:meth:`next_release_time`, :meth:`release_due`) and advances simulated
    time to release instants even when the platform is idle.

    Parameters
    ----------
    releases:
        Iterable of ``(release_time, model)`` or
        ``(release_time, task_id, model)`` tuples.  Auto-generated ids are
        ``("r", index)``.
    """

    def __init__(
        self,
        releases: "Iterable[tuple[float, SpeedupModel] | tuple[float, TaskId, SpeedupModel]]",
    ) -> None:
        from repro.exceptions import InvalidParameterError
        from repro.speedup.base import SpeedupModel

        items: list[tuple[float, TaskId, SpeedupModel]] = []
        for index, entry in enumerate(releases):
            if len(entry) == 2:
                r, model = entry
                task_id: TaskId = ("r", index)
            elif len(entry) == 3:
                r, task_id, model = entry
            else:
                raise InvalidParameterError(
                    f"release entry must be (time, model) or (time, id, model), "
                    f"got {entry!r}"
                )
            r = float(r)
            if r < 0:
                raise InvalidParameterError(f"release time must be >= 0, got {r}")
            if not isinstance(model, SpeedupModel):
                raise InvalidParameterError(
                    f"entry for task {task_id!r} has no speedup model"
                )
            items.append((r, task_id, model))
        # Stable sort by release time; ties keep input order.
        items.sort(key=lambda e: e[0])
        ids = [task_id for _, task_id, _ in items]
        if len(set(ids)) != len(ids):
            raise InvalidParameterError("duplicate task ids in releases")
        self._pending = items
        self._next = 0
        self._completed: set[TaskId] = set()
        self._graph = TaskGraph()

    # -- timed-release capability (detected by the engine) --------------
    def next_release_time(self) -> float | None:
        """Earliest release time not yet delivered, or None when drained."""
        if self._next >= len(self._pending):
            return None
        return self._pending[self._next][0]

    def release_due(self, now: float) -> list[Task]:
        """Deliver (and reveal) every task with release time <= ``now``."""
        released: list[Task] = []
        while self._next < len(self._pending) and self._pending[self._next][0] <= now:
            _, task_id, model = self._pending[self._next]
            released.append(self._graph.add_task(task_id, model))
            self._next += 1
        return released

    # -- GraphSource protocol ------------------------------------------
    def initial_tasks(self) -> list[Task]:
        """Tasks released at exactly time 0."""
        return self.release_due(0.0)

    def on_complete(self, task_id: TaskId) -> list[Task]:
        if task_id not in self._graph:
            raise SimulationError(f"completion of unknown task {task_id!r}")
        if task_id in self._completed:
            raise SimulationError(f"task {task_id!r} completed twice")
        self._completed.add(task_id)
        return []  # independent tasks: completions reveal nothing

    def is_exhausted(self) -> bool:
        return self._next >= len(self._pending) and len(self._completed) == len(
            self._pending
        )

    def realized_graph(self) -> TaskGraph:
        return self._graph

    def release_times(self) -> dict[TaskId, float]:
        """Map of task id -> release time (for lower-bound computations)."""
        return {task_id: r for r, task_id, _ in self._pending}
