"""Lemma 2's one-pass helpers against the per-task definitions, bit for bit.

:func:`repro.graph.analysis.minimum_total_area` and
:func:`~repro.graph.analysis.minimum_critical_path` evaluate ``a_min`` and
``t_min`` once per model *object*, and the critical path runs on
:meth:`TaskGraph.path_ends` over the compiled slot arrays.  Both
components of :func:`makespan_lower_bound` must equal the task-by-task
reference exactly (not approximately), on random DAGs whose edges arrive
out of insertion order and whose tasks mix shared and fresh models of all
four families.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import makespan_lower_bound
from repro.core.constants import MODEL_FAMILIES
from repro.graph import TaskGraph
from repro.graph.analysis import (
    critical_path_tasks,
    graph_stats,
    minimum_critical_path,
    minimum_total_area,
)
from repro.speedup import AmdahlModel
from repro.speedup.random import RandomModelFactory

PLATFORMS = (1, 16, 4096)

#: (method, id(model)) -> calls, filled by the counting models.
CALLS: Counter = Counter()


class Counting:
    """Mixin counting ``a_min`` / ``t_min`` calls per model object."""

    def a_min(self, P):
        CALLS["a_min", id(self)] += 1
        return super().a_min(P)

    def t_min(self, P):
        CALLS["t_min", id(self)] += 1
        return super().t_min(P)


_COUNTING_TYPES: dict[type, type] = {}


def counting(model):
    """A copy of ``model`` whose class also counts its Lemma-2 calls."""
    cls = type(model)
    if cls not in _COUNTING_TYPES:
        _COUNTING_TYPES[cls] = type(f"Counting{cls.__name__}", (Counting, cls), {})
    twin = object.__new__(_COUNTING_TYPES[cls])
    vars(twin).update(vars(model))
    return twin


@st.composite
def dags(draw):
    """A random DAG: shared and fresh models, edges added in any order."""
    n = draw(st.integers(0, 14))
    seed = draw(st.integers(0, 2**16))
    families = draw(st.lists(st.sampled_from(MODEL_FAMILIES), min_size=1, max_size=4))
    factories = [RandomModelFactory(f, seed=seed + i) for i, f in enumerate(families)]
    pool = [counting(f()) for f in factories]
    graph = TaskGraph()
    ids = draw(st.permutations(range(100, 100 + n)))
    for task_id in ids:
        pick = draw(st.integers(-1, len(pool) - 1))  # -1: a fresh model
        model = pool[pick] if pick >= 0 else counting(draw(st.sampled_from(factories))())
        graph.add_task(task_id, model)
    # A random topological rank, unrelated to insertion order, orients the edges.
    rank = draw(st.permutations(range(n)))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    graph.add_edges(draw(st.permutations([p for p in pairs if draw(st.booleans())])))
    return graph


def reference_area(graph, P):
    return sum(t.model.a_min(P) for t in graph.tasks()) / P


def reference_ends(graph, weight):
    """Task id -> heaviest path ending there, task by task in topological order."""
    length = {}
    for u in graph.topological_order():
        length[u] = max([length[p] for p in graph.predecessors(u)], default=0.0) + weight[u]
    return length


def reference_critical_path(graph, P):
    t_min = {t.id: t.model.t_min(P) for t in graph.tasks()}
    return max(reference_ends(graph, t_min).values(), default=0.0)


def reference_path(graph, P):
    """The walk-back of ``critical_path_tasks`` over the per-task DP."""
    if len(graph) == 0:
        return []
    t_min = {t.id: t.model.t_min(P) for t in graph.tasks()}
    length = reference_ends(graph, t_min)
    current = max(length, key=length.__getitem__)
    path = [current]
    preds = graph.predecessors(current)
    while preds:
        target = length[current] - t_min[current]
        tol = 1e-12 * max(1.0, abs(target))
        for p in preds:
            if abs(length[p] - target) <= tol:
                current = p
                break
        else:
            current = max(preds, key=length.__getitem__)
        path.append(current)
        preds = graph.predecessors(current)
    path.reverse()
    return path


def successors_ascend(graph):
    """Whether every successor list is in insertion order, as the slot arrays are."""
    index = graph.compiled().index
    return all(
        [index[v] for v in graph.successors(u)] == sorted(index[v] for v in graph.successors(u))
        for u in graph
    )


class TestBitIdentity:
    @given(dags(), st.sampled_from(PLATFORMS))
    @settings(max_examples=150, deadline=None)
    def test_components_equal_the_per_task_reference(self, graph, P):
        lb = makespan_lower_bound(graph, P)
        assert lb.area_bound == reference_area(graph, P)
        assert lb.critical_path_bound == reference_critical_path(graph, P)
        assert minimum_total_area(graph, P) / P == lb.area_bound
        assert minimum_critical_path(graph, P) == lb.critical_path_bound

    @given(dags(), st.sampled_from(PLATFORMS))
    @settings(max_examples=100, deadline=None)
    def test_critical_path_tasks_is_unchanged(self, graph, P):
        path = critical_path_tasks(graph, P)
        t_min = {t.id: t.model.t_min(P) for t in graph.tasks()}
        length = reference_ends(graph, t_min)
        if path:
            assert graph.predecessors(path[0]) == []
            assert all(u in graph.predecessors(v) for u, v in zip(path, path[1:]))
            assert length[path[-1]] == reference_critical_path(graph, P)
        # The per-task DP visits newly ready successors in edge order, the
        # slot arrays in insertion order; only a tie for the longest path
        # can tell the two apart.
        tied = sum(v == max(length.values()) for v in length.values()) > 1
        if successors_ascend(graph) or not tied:
            assert path == reference_path(graph, P)

    def test_a_tie_goes_to_the_first_tied_task_visited(self):
        # Newly ready successors are visited in insertion order, whatever
        # the order their edges were added in.
        g = TaskGraph()
        shared = AmdahlModel(4.0, 1.0)
        for task_id in "rab":
            g.add_task(task_id, shared)
        g.add_edges([("r", "b"), ("r", "a")])
        assert critical_path_tasks(g, 4) == ["r", "a"]
        # Roots come before their successors: "x" (a root) is visited
        # before "z", although "z" was inserted first.
        short, long = AmdahlModel(2.0, 0.5), AmdahlModel(4.0, 1.0)
        assert long.t_min(4) == 2 * short.t_min(4)
        g = TaskGraph()
        g.add_task("y", short)
        g.add_task("z", short)
        g.add_task("x", long)
        g.add_edge("y", "z")
        assert critical_path_tasks(g, 4) == ["x"]

    @given(dags(), st.sampled_from(PLATFORMS))
    @settings(max_examples=60, deadline=None)
    def test_graph_stats_take_the_same_components(self, graph, P):
        stats = graph_stats(graph, P)
        assert stats.min_total_area / P == reference_area(graph, P)
        assert stats.min_critical_path == reference_critical_path(graph, P)
        hops = reference_ends(graph, dict.fromkeys(graph, 1.0))
        assert stats.depth == int(max(hops.values(), default=0))
        assert stats.width == max(Counter(hops.values()).values(), default=0)

    @given(dags(), st.sampled_from(PLATFORMS))
    @settings(max_examples=100, deadline=None)
    def test_one_call_per_model_object(self, graph, P):
        models = {id(t.model) for t in graph.tasks()}
        CALLS.clear()
        makespan_lower_bound(graph, P)
        assert CALLS == Counter(
            {(name, m): 1 for m in models for name in ("a_min", "t_min")}
        )

    @given(dags(), st.sampled_from(PLATFORMS))
    @settings(max_examples=40, deadline=None)
    def test_each_term_asks_only_its_own_method(self, graph, P):
        models = {id(t.model) for t in graph.tasks()}
        for term, name in (
            (minimum_total_area, "a_min"),
            (minimum_critical_path, "t_min"),
            (critical_path_tasks, "t_min"),
        ):
            CALLS.clear()
            term(graph, P)
            assert CALLS == Counter({(name, m): 1 for m in models})

    @pytest.mark.parametrize("P", PLATFORMS)
    def test_empty_graph(self, P):
        lb = makespan_lower_bound(TaskGraph(), P)
        assert (lb.area_bound, lb.critical_path_bound) == (0.0, 0.0)
        assert critical_path_tasks(TaskGraph(), P) == []


class Raising(AmdahlModel):
    """An Amdahl model whose ``a_min`` or ``t_min`` raises a tagged error."""

    def __init__(self, method, tag):
        super().__init__(4.0, 1.0)
        self.method = method
        self.tag = tag

    def a_min(self, P):
        if self.method == "a_min":
            raise RuntimeError(self.tag)
        return super().a_min(P)

    def t_min(self, P):
        if self.method == "t_min":
            raise RuntimeError(self.tag)
        return super().t_min(P)


class TestRaisingModels:
    """A model that raises surfaces the exception the per-task code raised."""

    @pytest.mark.parametrize("method", ["a_min", "t_min"])
    def test_the_exception_propagates(self, method):
        g = TaskGraph()
        g.add_task("ok", AmdahlModel(1.0, 1.0))
        g.add_task("bad", Raising(method, "bad"))
        with pytest.raises(RuntimeError, match="bad"):
            makespan_lower_bound(g, 4)

    def test_every_area_is_asked_before_any_time(self):
        # The per-task code summed A_min before computing C_min, so a later
        # task's a_min error wins over an earlier task's t_min error.
        g = TaskGraph()
        g.add_task("first", Raising("t_min", "time"))
        g.add_task("second", Raising("a_min", "area"))
        with pytest.raises(RuntimeError, match="area"):
            makespan_lower_bound(g, 4)

    def test_the_first_failing_task_wins(self):
        g = TaskGraph()
        g.add_task("a", Raising("a_min", "first"))
        g.add_task("b", Raising("a_min", "second"))
        g.add_edge("b", "a")
        with pytest.raises(RuntimeError, match="first"):
            makespan_lower_bound(g, 4)

    def test_each_term_raises_only_for_its_own_method(self):
        g = TaskGraph()
        g.add_task("area", Raising("a_min", "area"))
        g.add_task("time", Raising("t_min", "time"))
        with pytest.raises(RuntimeError, match="area"):
            minimum_total_area(g, 4)
        with pytest.raises(RuntimeError, match="time"):
            minimum_critical_path(g, 4)
        g2 = TaskGraph()
        g2.add_task("area", Raising("a_min", "area"))
        assert minimum_critical_path(g2, 4) == AmdahlModel(4.0, 1.0).t_min(4)
        assert critical_path_tasks(g2, 4) == ["area"]
