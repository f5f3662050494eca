"""Task-graph transformations.

Structural utilities a downstream user needs when assembling workloads:
series/parallel composition, relabeling, reversal, transitive reduction
(pruning redundant edges so adjacency-based heuristics see clean graphs),
and level decomposition.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import GraphError
from repro.graph.taskgraph import TaskGraph
from repro.types import TaskId

__all__ = [
    "relabel",
    "reverse",
    "compose_series",
    "compose_parallel",
    "transitive_reduction",
    "level_decomposition",
]


def relabel(graph: TaskGraph, mapping: Callable[[TaskId], TaskId]) -> TaskGraph:
    """Return a copy with every task id passed through ``mapping``.

    Raises :class:`~repro.exceptions.GraphError` if the mapping collides.
    """
    out = TaskGraph()
    for task in graph.tasks():
        out.add_task(mapping(task.id), task.model, task.tag)
    for u, v in graph.edges():
        out.add_edge(mapping(u), mapping(v))
    if len(out) != len(graph):  # pragma: no cover - add_task already raises
        raise GraphError("relabeling mapping is not injective")
    return out


def reverse(graph: TaskGraph) -> TaskGraph:
    """Return a copy with every precedence edge flipped.

    Turns an out-tree into an in-tree, a fork into a join, etc.
    """
    out = TaskGraph()
    for task in graph.tasks():
        out.add_task(task.id, task.model, task.tag)
    for u, v in graph.edges():
        out.add_edge(v, u)
    return out


def _copy_into(dst: TaskGraph, src: TaskGraph, prefix: object) -> None:
    for task in src.tasks():
        dst.add_task((prefix, task.id), task.model, task.tag)
    for u, v in src.edges():
        dst.add_edge((prefix, u), (prefix, v))


def compose_series(*graphs: TaskGraph) -> TaskGraph:
    """Chain graphs: every sink of graph ``i`` precedes every source of
    graph ``i+1``.

    Task ids become ``(stage_index, original_id)``.
    """
    if not graphs:
        return TaskGraph()
    out = TaskGraph()
    for index, graph in enumerate(graphs):
        _copy_into(out, graph, index)
        if index > 0:
            for sink in graphs[index - 1].sinks():
                for source in graph.sources():
                    out.add_edge((index - 1, sink), (index, source))
    return out


def compose_parallel(*graphs: TaskGraph) -> TaskGraph:
    """Put graphs side by side with no cross edges.

    Task ids become ``(branch_index, original_id)``.
    """
    out = TaskGraph()
    for index, graph in enumerate(graphs):
        _copy_into(out, graph, index)
    return out


def transitive_reduction(graph: TaskGraph) -> TaskGraph:
    """Return a copy without redundant edges.

    An edge ``u -> v`` is redundant when another path from ``u`` to ``v``
    exists; removing it changes no scheduling semantics (the constraint is
    implied) but de-noises degree-based heuristics and visualizations.
    """
    order = graph.topological_order()
    position = {t: i for i, t in enumerate(order)}
    # Reachability sets, computed backwards over the topological order.
    reachable: dict[TaskId, set[TaskId]] = {}
    for u in reversed(order):
        acc: set[TaskId] = set()
        for v in graph.successors(u):
            acc.add(v)
            acc |= reachable[v]
        reachable[u] = acc

    out = TaskGraph()
    for task in graph.tasks():
        out.add_task(task.id, task.model, task.tag)
    for u in order:
        successors = sorted(graph.successors(u), key=position.__getitem__)
        for i, v in enumerate(successors):
            # Redundant iff v is reachable from another successor of u.
            if any(v in reachable[w] for w in successors if w is not v):
                continue
            out.add_edge(u, v)
    return out


def level_decomposition(graph: TaskGraph) -> list[list[TaskId]]:
    """Partition tasks into depth levels (level i = tasks at depth i+1).

    Tasks within one level form an antichain under the canonical depth
    layering; the number of levels equals
    :meth:`~repro.graph.TaskGraph.longest_path_length`.
    """
    _, hops = graph.path_ends([1.0] * len(graph))
    levels: list[list[TaskId]] = [[] for _ in range(int(max(hops, default=0)))]
    for task_id, depth in zip(graph, hops):  # keep insertion order within each level
        levels[int(depth) - 1].append(task_id)
    return levels
