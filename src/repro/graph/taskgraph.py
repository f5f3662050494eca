"""Directed acyclic graph of moldable tasks.

The container is deliberately plain (dict-of-sets adjacency) so the hot
paths — topological traversal during simulation, critical-path dynamic
programming — stay allocation-free and easy to reason about.  Conversion to
and from :mod:`networkx` lives in :mod:`repro.graph.io`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, NamedTuple

from repro.exceptions import CycleError, GraphError, UnknownTaskError
from repro.graph.task import Task
from repro.speedup.base import SpeedupModel
from repro.types import TaskId

__all__ = ["TaskGraph", "CompiledGraph"]


class CompiledGraph(NamedTuple):
    """Read-only slot arrays of one :class:`TaskGraph` version (see :meth:`TaskGraph.compiled`).

    A task's *slot* is its insertion index.  Built once per graph version
    and shared by every run over that version, so consumers must not
    mutate ``index`` (simulation sources copy ``in_degree`` into a list
    for their per-run state).
    """

    #: The graph's mutation count when the snapshot was built.
    version: int
    #: Slot -> :class:`Task`, in insertion order.
    tasks: tuple[Task, ...]
    #: Task id -> slot.
    index: dict[TaskId, int]
    #: Slots of the tasks with no predecessor, ascending.
    roots: tuple[int, ...]
    #: Slot -> slots of its direct successors, ascending.
    successors: tuple[tuple[int, ...], ...]
    #: Slot -> number of direct predecessors.
    in_degree: tuple[int, ...]
    #: Slot -> model group: tasks share a group iff they share one model
    #: *object*, numbered by first appearance.
    groups: tuple[int, ...]
    #: Number of distinct model groups.
    group_count: int


class TaskGraph:
    """A DAG of moldable tasks with precedence constraints.

    Tasks preserve insertion order everywhere (iteration, queue insertion in
    the online scheduler), which makes runs exactly reproducible and lets
    adversarial generators control the reveal order of simultaneously
    available tasks.

    Examples
    --------
    >>> from repro.speedup import AmdahlModel
    >>> g = TaskGraph()
    >>> _ = g.add_task("a", AmdahlModel(10, 1))
    >>> _ = g.add_task("b", AmdahlModel(5, 1))
    >>> g.add_edge("a", "b")
    >>> list(g.topological_order())
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._tasks: dict[TaskId, Task] = {}
        self._succ: dict[TaskId, list[TaskId]] = {}
        self._pred: dict[TaskId, list[TaskId]] = {}
        self._num_edges = 0
        # Bumped by every mutation; `compiled()` rebuilds on a mismatch.
        self._version = 0
        self._compiled: CompiledGraph | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_task(self, task_id: TaskId, model: SpeedupModel, tag: str = "") -> Task:
        """Add a task and return the created :class:`Task` record."""
        if task_id in self._tasks:
            raise GraphError(f"duplicate task id {task_id!r}")
        if not isinstance(model, SpeedupModel):
            raise GraphError(
                f"model for task {task_id!r} must be a SpeedupModel, got {model!r}"
            )
        task = Task(task_id, model, tag)
        self._tasks[task_id] = task
        self._succ[task_id] = []
        self._pred[task_id] = []
        self._version += 1
        return task

    def add_edge(self, src: TaskId, dst: TaskId) -> None:
        """Add the precedence constraint ``src -> dst`` (src must finish first).

        Raises :class:`~repro.exceptions.CycleError` if the edge would close
        a directed cycle, leaving the graph unchanged.
        """
        succ = self._succ
        if src not in succ:
            raise UnknownTaskError(src)
        if dst not in succ:
            raise UnknownTaskError(dst)
        if src == dst:
            raise CycleError(f"self-loop on task {src!r}")
        out = succ[src]
        if dst in out:
            return  # idempotent
        # A cycle needs a path back from dst, so dst must have successors.
        if succ[dst] and self._reaches(dst, src):
            raise CycleError(f"edge {src!r} -> {dst!r} would create a cycle")
        out.append(dst)
        self._pred[dst].append(src)
        self._num_edges += 1
        self._version += 1

    def add_edges(self, edges: Iterable[tuple[TaskId, TaskId]]) -> None:
        """Add several precedence constraints."""
        for src, dst in edges:
            self.add_edge(src, dst)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._tasks)

    def task(self, task_id: TaskId) -> Task:
        """Return the :class:`Task` record for ``task_id``."""
        self._require(task_id)
        return self._tasks[task_id]

    def tasks(self) -> list[Task]:
        """Return all task records in insertion order."""
        return list(self._tasks.values())

    def edges(self) -> list[tuple[TaskId, TaskId]]:
        """Return all precedence edges."""
        return [(u, v) for u, succs in self._succ.items() for v in succs]

    def num_edges(self) -> int:
        """Return the number of precedence edges (O(1))."""
        return self._num_edges

    def successors(self, task_id: TaskId) -> list[TaskId]:
        """Return direct successors of ``task_id`` in insertion order."""
        self._require(task_id)
        return list(self._succ[task_id])

    def successor_map(self) -> dict[TaskId, tuple[TaskId, ...]]:
        """Snapshot of the whole adjacency: id -> direct successors.

        One bulk copy instead of ``len(graph)`` :meth:`successors` calls;
        used by simulation sources that walk the adjacency on their hot
        path.  The snapshot is decoupled from later graph mutations.
        """
        return {t: tuple(s) for t, s in self._succ.items()}

    def in_degree_map(self) -> dict[TaskId, int]:
        """Snapshot of every task's in-degree, in insertion order."""
        return {t: len(p) for t, p in self._pred.items()}

    def task_map(self) -> dict[TaskId, Task]:
        """Snapshot mapping every id to its :class:`Task`, in insertion order."""
        return dict(self._tasks)

    def compiled(self) -> CompiledGraph:
        """The slot arrays of the current graph version, built once.

        Repeated simulations of one graph share the snapshot instead of
        re-copying the adjacency per run; any :meth:`add_task` or
        :meth:`add_edge` makes the next call build a fresh one.
        Successor slots ascend, which is insertion order: the reveal
        order of tasks that one completion makes available together.
        Model groups go by object identity, so a model mutated between
        runs stays in its group and is simply resolved afresh by the
        next run.
        """
        compiled = self._compiled
        if compiled is not None and compiled.version == self._version:
            return compiled
        index = {t: i for i, t in enumerate(self._tasks)}
        group_of: dict[int, int] = {}
        groups = tuple(
            group_of.setdefault(id(task.model), len(group_of))
            for task in self._tasks.values()
        )
        compiled = self._compiled = CompiledGraph(
            self._version,
            tuple(self._tasks.values()),
            index,
            tuple(index[t] for t, p in self._pred.items() if not p),
            tuple(tuple(sorted(map(index.__getitem__, s))) for s in self._succ.values()),
            tuple(len(p) for p in self._pred.values()),
            groups,
            len(group_of),
        )
        return compiled

    def predecessors(self, task_id: TaskId) -> list[TaskId]:
        """Return direct predecessors of ``task_id`` in insertion order."""
        self._require(task_id)
        return list(self._pred[task_id])

    def in_degree(self, task_id: TaskId) -> int:
        """Return the number of direct predecessors."""
        self._require(task_id)
        return len(self._pred[task_id])

    def out_degree(self, task_id: TaskId) -> int:
        """Return the number of direct successors."""
        self._require(task_id)
        return len(self._succ[task_id])

    def sources(self) -> list[TaskId]:
        """Tasks with no predecessor (available at time 0)."""
        return [t for t in self._tasks if not self._pred[t]]

    def sinks(self) -> list[TaskId]:
        """Tasks with no successor."""
        return [t for t in self._tasks if not self._succ[t]]

    def topological_order(self) -> list[TaskId]:
        """Return a topological order (Kahn's algorithm, insertion-stable)."""
        indeg = {t: len(self._pred[t]) for t in self._tasks}
        ready = deque(t for t in self._tasks if indeg[t] == 0)
        order: list[TaskId] = []
        while ready:
            u = ready.popleft()
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        if len(order) != len(self._tasks):  # pragma: no cover - guarded by add_edge
            raise CycleError("graph contains a cycle")
        return order

    def longest_path_length(self) -> int:
        """Return ``D``: the number of tasks on the longest path (hop count).

        This is the quantity in Theorem 9's :math:`\\Omega(\\ln D)` bound.
        Returns 0 for an empty graph.
        """
        hops = self.longest_paths(dict.fromkeys(self._tasks, 1.0))
        return int(max(hops.values(), default=0))

    def longest_paths(self, weight: Mapping[TaskId, float]) -> dict[TaskId, float]:
        """Heaviest path ending at each task, a task weighing ``weight[id]``.

        One pass over the adjacency in :meth:`topological_order` (which is
        also the order of the returned dict), with no per-task copy.
        """
        pred = self._pred
        length: dict[TaskId, float] = {}
        for u in self.topological_order():
            preds = pred[u]
            length[u] = (max([length[p] for p in preds]) if preds else 0.0) + weight[u]
        return length

    def ancestors(self, task_id: TaskId) -> set[TaskId]:
        """Return every task that must complete before ``task_id`` can start."""
        self._require(task_id)
        seen: set[TaskId] = set()
        stack = list(self._pred[task_id])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._pred[u])
        return seen

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, task_id: TaskId) -> None:
        if task_id not in self._tasks:
            raise UnknownTaskError(task_id)

    def _reaches(self, start: TaskId, goal: TaskId) -> bool:
        """Depth-first reachability test used by cycle prevention."""
        if start == goal:
            return True
        stack = [start]
        seen = {start}
        while stack:
            u = stack.pop()
            for v in self._succ[u]:
                if v == goal:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph(n={len(self)}, m={self.num_edges()})"
