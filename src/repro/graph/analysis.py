"""Graph-level quantities used by the competitive analysis.

Implements Definitions 1 and 2 of the paper: the minimum total area
:math:`A_{\\min}` and the minimum critical-path length :math:`C_{\\min}`,
both lower bounds on the optimal makespan (Lemma 2, see
:mod:`repro.bounds`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import methodcaller
from typing import Callable, Sequence

from repro.graph.taskgraph import CompiledGraph, TaskGraph
from repro.speedup.base import SpeedupModel
from repro.types import TaskId
from repro.util.validation import check_positive_int

__all__ = [
    "minimum_total_area",
    "minimum_critical_path",
    "critical_path_tasks",
    "heaviest_path",
    "bottom_levels",
    "graph_stats",
    "GraphStats",
]


def _slot_values(
    compiled: CompiledGraph, value: Callable[[SpeedupModel], float]
) -> list[float]:
    """Slot -> ``value(task.model)``, called once per model group.

    Groups are the tasks sharing one model object (see
    :meth:`TaskGraph.compiled`); they are asked in first-appearance
    order, so a model that raises surfaces as it did task by task.
    """
    groups = compiled.groups
    if compiled.group_count == len(groups):  # every task has its own model
        return [value(task.model) for task in compiled.tasks]
    # Group -> one of its tasks; keys ascend from 0 by first appearance.
    of_group = [value(task.model) for task in dict(zip(groups, compiled.tasks)).values()]
    return list(map(of_group.__getitem__, groups))


def minimum_total_area(graph: TaskGraph, P: int) -> float:
    """Return :math:`A_{\\min} = \\sum_j a^{\\min}_j` (Definition 1).

    The per-task areas are summed with ``sum`` in insertion order, the
    sequence a task-by-task sum sees (Python 3.12's ``sum`` of floats is
    compensated, so the sequence decides the last bit).
    """
    P = check_positive_int(P, "P")
    return sum(_slot_values(graph.compiled(), methodcaller("a_min", P)))


def minimum_critical_path(graph: TaskGraph, P: int) -> float:
    """Return :math:`C_{\\min}` (Definition 2).

    The longest path in the graph where each task is weighted by its
    minimum execution time :math:`t^{\\min}_j = t_j(p^{\\max}_j)`.
    """
    P = check_positive_int(P, "P")
    _, ends = graph.path_ends(_slot_values(graph.compiled(), methodcaller("t_min", P)))
    return max(ends, default=0.0)


def critical_path_tasks(graph: TaskGraph, P: int) -> list[TaskId]:
    """Return one path achieving :math:`C_{\\min}`, from source to sink.

    On a tie for the longest path it ends at the first tied task that
    :meth:`TaskGraph.path_ends` visits; see :func:`heaviest_path` for the
    steps back from there.
    """
    P = check_positive_int(P, "P")
    compiled = graph.compiled()
    order, ends = graph.path_ends(_slot_values(compiled, methodcaller("t_min", P)))
    if not order:
        return []
    tail = max(order, key=ends.__getitem__)
    return [compiled.tasks[s].id for s in heaviest_path(graph, ends, tail)]


def heaviest_path(graph: TaskGraph, ends: Sequence[float], tail: int) -> list[int]:
    """Slots of a heaviest path ending at slot ``tail``, from source to ``tail``.

    ``ends`` is slot -> heaviest path ending there, as returned by
    :meth:`TaskGraph.path_ends`.  Each step back goes to the first
    predecessor, in insertion order, whose end is the largest among the
    predecessors' (an exact comparison: no tolerance).
    """
    compiled = graph.compiled()
    tasks, index = compiled.tasks, compiled.index
    path = [tail]
    while preds := graph.predecessors(tasks[path[-1]].id):
        path.append(max(map(index.__getitem__, preds), key=ends.__getitem__))
    path.reverse()
    return path


def bottom_levels(graph: TaskGraph, P: int) -> dict[TaskId, float]:
    """Length of the longest min-time path from each task to a sink.

    ``bottom_levels[j]`` includes task ``j``'s own minimum execution time,
    so the maximum over all tasks equals :math:`C_{\\min}`.
    """
    P = check_positive_int(P, "P")
    compiled = graph.compiled()
    t_min = _slot_values(compiled, methodcaller("t_min", P))
    succ = compiled.successors
    level = [0.0] * len(t_min)
    for u in reversed(graph.path_ends(t_min)[0]):
        level[u] = t_min[u] + max(map(level.__getitem__, succ[u]), default=0.0)
    return {task.id: lv for task, lv in zip(compiled.tasks, level)}


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a task graph (for experiment reports)."""

    n_tasks: int
    n_edges: int
    depth: int
    width: int
    min_total_area: float
    min_critical_path: float

    def __str__(self) -> str:
        return (
            f"n={self.n_tasks} m={self.n_edges} depth={self.depth} "
            f"width={self.width} A_min={self.min_total_area:.4g} "
            f"C_min={self.min_critical_path:.4g}"
        )


def graph_stats(graph: TaskGraph, P: int) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph`` on a ``P``-processor platform.

    ``width`` is the size of the largest antichain layer under the canonical
    depth layering (an easy-to-compute proxy for maximum task parallelism).
    """
    P = check_positive_int(P, "P")
    # Depth by hop count: the heaviest path with every task weighing 1.
    _, hops = graph.path_ends([1.0] * len(graph))
    layer_sizes = Counter(hops)
    return GraphStats(
        n_tasks=len(graph),
        n_edges=graph.num_edges(),
        depth=int(max(layer_sizes, default=0)),
        width=max(layer_sizes.values(), default=0),
        min_total_area=minimum_total_area(graph, P),
        min_critical_path=minimum_critical_path(graph, P),
    )
