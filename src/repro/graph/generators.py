"""Synthetic task-graph generators.

Classic DAG families used by the empirical study: chains, fork-join,
trees, random layered graphs, and Erdős–Rényi-style random DAGs.  Each
generator takes a ``model_factory`` callable that produces one
:class:`~repro.speedup.SpeedupModel` per task (see
:class:`repro.speedup.RandomModelFactory`), so structure and task
heterogeneity are configured independently.

Adversarial instances from the paper's lower-bound proofs live in
:mod:`repro.adversary`, not here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.taskgraph import TaskGraph
from repro.speedup.base import SpeedupModel
from repro.util.validation import check_positive_int, check_probability

__all__ = [
    "chain",
    "independent_tasks",
    "fork_join",
    "out_tree",
    "in_tree",
    "layered_random",
    "erdos_renyi_dag",
]

ModelFactory = Callable[[], SpeedupModel]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def chain(length: int, model_factory: ModelFactory) -> TaskGraph:
    """A linear chain of ``length`` tasks: ``0 -> 1 -> ... -> length-1``."""
    length = check_positive_int(length, "length")
    g = TaskGraph()
    for i in range(length):
        g.add_task(i, model_factory())
        if i:
            g.add_edge(i - 1, i)
    return g


def independent_tasks(n: int, model_factory: ModelFactory) -> TaskGraph:
    """``n`` tasks with no precedence constraints."""
    n = check_positive_int(n, "n")
    g = TaskGraph()
    for i in range(n):
        g.add_task(i, model_factory())
    return g


def fork_join(
    width: int,
    model_factory: ModelFactory,
    *,
    stages: int = 1,
) -> TaskGraph:
    """``stages`` fork-join diamonds chained together.

    Each diamond is ``source -> width parallel tasks -> sink``; the sink of
    one stage is the source of the next.
    """
    width = check_positive_int(width, "width")
    stages = check_positive_int(stages, "stages")
    g = TaskGraph()
    next_id = 0

    def new_task() -> int:
        nonlocal next_id
        tid = next_id
        g.add_task(tid, model_factory())
        next_id += 1
        return tid

    src = new_task()
    for _ in range(stages):
        mids = [new_task() for _ in range(width)]
        sink = new_task()
        for m in mids:
            g.add_edge(src, m)
            g.add_edge(m, sink)
        src = sink
    return g


def out_tree(depth: int, branching: int, model_factory: ModelFactory) -> TaskGraph:
    """A complete out-tree (root forks down) of the given depth and branching.

    ``depth`` counts levels, so the tree has
    :math:`(b^{depth} - 1)/(b - 1)` tasks for branching ``b > 1``.
    """
    depth = check_positive_int(depth, "depth")
    branching = check_positive_int(branching, "branching")
    g = TaskGraph()
    g.add_task(0, model_factory())
    frontier = [0]
    next_id = 1
    for _ in range(depth - 1):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                g.add_task(next_id, model_factory())
                g.add_edge(parent, next_id)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return g


def in_tree(depth: int, branching: int, model_factory: ModelFactory) -> TaskGraph:
    """A complete in-tree (leaves reduce up to a single root)."""
    tree = out_tree(depth, branching, model_factory)
    g = TaskGraph()
    for task in tree.tasks():
        g.add_task(task.id, task.model, task.tag)
    for src, dst in tree.edges():
        g.add_edge(dst, src)  # reverse every edge
    return g


def layered_random(
    n_layers: int,
    layer_width: int,
    model_factory: ModelFactory,
    *,
    edge_probability: float = 0.3,
    seed: int | np.random.Generator | None = None,
) -> TaskGraph:
    """A random layered DAG: edges only go from layer ``i`` to layer ``i+1``.

    Every non-first-layer task receives at least one predecessor so the
    depth really is ``n_layers``.
    """
    n_layers = check_positive_int(n_layers, "n_layers")
    layer_width = check_positive_int(layer_width, "layer_width")
    p = check_probability(edge_probability, "edge_probability")
    gen = _rng(seed)
    g = TaskGraph()
    layers: list[list[int]] = []
    next_id = 0
    for _ in range(n_layers):
        layer = []
        for _ in range(layer_width):
            g.add_task(next_id, model_factory())
            layer.append(next_id)
            next_id += 1
        layers.append(layer)
    for i in range(1, n_layers):
        above = layers[i - 1]
        for v in layers[i]:
            # One row draw: the same bits as one ``gen.random()`` per
            # candidate predecessor, in order.
            draws = gen.random(len(above)).tolist()
            preds = [u for u, r in zip(above, draws, strict=True) if r < p]
            if not preds:
                preds = [above[int(gen.integers(len(above)))]]
            for u in preds:
                g.add_edge(u, v)
    return g


def erdos_renyi_dag(
    n: int,
    model_factory: ModelFactory,
    *,
    edge_probability: float = 0.1,
    seed: int | np.random.Generator | None = None,
) -> TaskGraph:
    """A random DAG: each pair ``(i, j)`` with ``i < j`` gets an edge w.p. ``p``.

    Orienting edges along a fixed vertex order guarantees acyclicity; this
    is the standard random-DAG construction used in scheduling papers.
    """
    n = check_positive_int(n, "n")
    p = check_probability(edge_probability, "edge_probability")
    gen = _rng(seed)
    g = TaskGraph()
    for i in range(n):
        g.add_task(i, model_factory())
    if n > 1:
        # nonzero() is row-major, so the strict upper triangle's hits come
        # in pair order (i ascending, then j).
        rows, cols = np.nonzero(gen.random((n, n)) < p)
        upper = rows < cols
        for i, j in zip(rows[upper].tolist(), cols[upper].tolist(), strict=True):
            g.add_edge(i, j)
    return g
