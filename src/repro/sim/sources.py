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
from repro.graph.taskgraph import CompiledGraph, TaskGraph
from repro.sim.allocation import Allocation
from repro.types import TaskId

if TYPE_CHECKING:
    from collections.abc import Iterable

    from repro.speedup.base import SpeedupModel

__all__ = ["GraphSource", "StaticGraphSource", "ReleasedTaskSource"]

#: ``StaticSlots`` marks completed tasks with this unmet-predecessor count.
_COMPLETED = -1

#: A model group resolved by the engine: (allocation, procs, duration).
Resolved = tuple[Allocation, int, float]


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
    :meth:`~repro.graph.taskgraph.TaskGraph.compiled`, one set of slot
    arrays per graph version shared by every source over that version.
    Each source keeps its own reveal and completion state in a
    :class:`StaticSlots` view, which the engine drives directly; the
    id-keyed methods here translate to and from slots.
    """

    def __init__(self, graph: TaskGraph) -> None:
        self._graph = graph
        self._slots = StaticSlots(graph.compiled())

    def initial_tasks(self) -> list[Task]:
        tasks = self._slots.tasks
        return [tasks[s] for s in self._slots.initial()]

    def on_complete(self, task_id: TaskId) -> list[Task]:
        slots = self._slots
        slot = slots.index.get(task_id)
        if slot is None:
            raise SimulationError(f"completion of unrevealed task {task_id!r}")
        tasks = slots.tasks
        return [tasks[s] for s in slots.on_complete(slot)]

    def is_exhausted(self) -> bool:
        return self._slots.is_exhausted()

    def realized_graph(self) -> TaskGraph:
        return self._graph


class StaticSlots:
    """Slot view of a :class:`StaticGraphSource`: walks the compiled arrays.

    ``pending[slot]`` counts the unmet predecessors of a task, drops to 0
    on reveal and is set to -1 on completion.  A root counts its reveal
    as one unmet predecessor until :meth:`initial` reveals it, so an early
    completion of a root is rejected like any other unrevealed task.
    """

    def __init__(self, compiled: CompiledGraph) -> None:
        self.tasks = compiled.tasks
        self.index = compiled.index
        self.groups = compiled.groups
        #: The engine's per-run reveal table, one entry per model group.
        self.resolved: list[Resolved | None] = [None] * compiled.group_count
        self._roots = compiled.roots
        self._succ = compiled.successors
        pending = self._pending = list(compiled.in_degree)
        for root in self._roots:
            pending[root] = 1

    def initial(self) -> list[int]:
        pending = self._pending
        for root in self._roots:
            if pending[root] == 1:
                pending[root] = 0
        return list(self._roots)

    def on_complete(self, slot: int) -> list[int]:
        pending = self._pending
        if pending[slot]:
            if pending[slot] == _COMPLETED:
                raise SimulationError(f"task {self.tasks[slot].id!r} completed twice")
            raise SimulationError(f"completion of unrevealed task {self.tasks[slot].id!r}")
        pending[slot] = _COMPLETED
        ready: list[int] = []
        for succ in self._succ[slot]:
            left = pending[succ] - 1
            pending[succ] = left
            if not left:
                ready.append(succ)
        return ready

    def is_exhausted(self) -> bool:
        return self._pending.count(_COMPLETED) == len(self._pending)


class NumberedSlots:
    """Slot view of any other :class:`GraphSource`.

    Numbers tasks in reveal order and groups them by model object, as
    :meth:`~repro.graph.taskgraph.TaskGraph.compiled` does for static
    graphs, and delegates every completion to the source's
    ``on_complete(task_id)``.  A task id revealed a second time is
    rejected here, before the engine admits it.
    """

    def __init__(self, source: GraphSource) -> None:
        self._source = source
        self.tasks: list[Task] = []
        self.groups: list[int] = []
        #: The engine's per-run reveal table, one entry per model group.
        self.resolved: list[Resolved | None] = []
        self._slot_of: dict[TaskId, int] = {}
        self._group_of: dict[int, int] = {}
        self._release_due = getattr(source, "release_due", None)
        #: Whether the source also releases tasks at future times
        #: (``next_release_time`` and ``release_due``, as
        #: :class:`ReleasedTaskSource` does).
        self.timed = callable(self._release_due) and callable(
            getattr(source, "next_release_time", None)
        )

    def _number(self, revealed: list[Task]) -> list[int]:
        slots: list[int] = []
        for task in revealed:
            if task.id in self._slot_of:
                raise SimulationError(f"task {task.id!r} revealed twice")
            slot = self._slot_of[task.id] = len(self.tasks)
            self.tasks.append(task)
            group = self._group_of.get(id(task.model))
            if group is None:
                group = self._group_of[id(task.model)] = len(self.resolved)
                self.resolved.append(None)
            self.groups.append(group)
            slots.append(slot)
        return slots

    def initial(self) -> list[int]:
        return self._number(self._source.initial_tasks())

    def on_complete(self, slot: int) -> list[int]:
        return self._number(self._source.on_complete(self.tasks[slot].id))

    def release_due(self, now: float) -> list[int]:
        return self._number(self._release_due(now))

    def is_exhausted(self) -> bool:
        return self._source.is_exhausted()


def slot_view(source: GraphSource) -> StaticSlots | NumberedSlots:
    """The integer-slot view through which the engine drives ``source``.

    Only a plain :class:`StaticGraphSource` is driven through its compiled
    arrays; every other source, subclasses included, keeps its own
    ``on_complete`` behind a :class:`NumberedSlots` view.
    """
    if type(source) is StaticGraphSource:
        return source._slots
    return NumberedSlots(source)


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
