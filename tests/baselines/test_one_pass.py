"""CPA and bottom levels on :meth:`TaskGraph.path_ends`, against the id-keyed DPs.

The references below are the task-id-keyed implementations that
:func:`repro.baselines.cpa.cpa_allotment` and
:func:`repro.baselines.offline.bottom_levels` replaced, kept verbatim.
Both must return equal values (``==``, not approximately) on random DAGs
whose edges arrive out of insertion order and whose tasks mix shared and
fresh models of all four families.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cpa import cpa_allotment
from repro.baselines.offline import bottom_levels
from repro.graph import TaskGraph, critical_path_tasks
from repro.speedup import AmdahlModel, RooflineModel
from tests.bounds.test_lemma2_kernel import PLATFORMS, dags


def reference_critical_path(graph, times):
    """Longest path under the given per-task times; returns (length, path)."""
    longest = {}
    best_pred = {}
    for u in graph.topological_order():
        pred, length = None, 0.0
        for q in graph.predecessors(u):
            if longest[q] > length:
                pred, length = q, longest[q]
        longest[u] = length + times[u]
        best_pred[u] = pred
    if not longest:
        return 0.0, []
    tail = max(longest, key=lambda t: longest[t])
    path = [tail]
    while best_pred[path[-1]] is not None:
        path.append(best_pred[path[-1]])
    path.reverse()
    return longest[tail], path


def reference_cpa_allotment(graph, P, *, max_iterations=None):
    n = len(graph)
    if n == 0:
        return {}
    if max_iterations is None:
        max_iterations = n * min(P, 64)

    models = {t.id: t.model for t in graph.tasks()}
    p_max = {tid: m.max_useful_processors(P) for tid, m in models.items()}
    alloc = {tid: 1 for tid in models}
    times = {tid: models[tid].time(1) for tid in models}
    area = sum(models[tid].area(1) for tid in models)

    for _ in range(max_iterations):
        C, path = reference_critical_path(graph, times)
        if C <= area / P:
            break
        best_tid, best_gain = None, 0.0
        for tid in path:
            p = alloc[tid]
            if p >= p_max[tid]:
                continue
            dt = times[tid] - models[tid].time(p + 1)
            da = models[tid].area(p + 1) - models[tid].area(p)
            gain = dt / max(da, 1e-12)
            if dt > 0 and gain > best_gain:
                best_tid, best_gain = tid, gain
        if best_tid is None:
            break
        p = alloc[best_tid]
        area += models[best_tid].area(p + 1) - models[best_tid].area(p)
        alloc[best_tid] = p + 1
        times[best_tid] = models[best_tid].time(p + 1)
    return alloc


def reference_bottom_levels(graph, P):
    level = {}
    for u in reversed(graph.topological_order()):
        succ_best = max((level[s] for s in graph.successors(u)), default=0.0)
        level[u] = graph.task(u).model.t_min(P) + succ_best
    return level


class TestAgainstTheIdKeyedReferences:
    @given(dags(), st.sampled_from(PLATFORMS))
    @settings(max_examples=150, deadline=None)
    def test_cpa_allotment(self, graph, P):
        allotment = cpa_allotment(graph, P)
        assert allotment == reference_cpa_allotment(graph, P)
        assert list(allotment) == list(graph)

    @given(dags(), st.sampled_from(PLATFORMS), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_cpa_allotment_stopped_early(self, graph, P, steps):
        assert cpa_allotment(graph, P, max_iterations=steps) == reference_cpa_allotment(
            graph, P, max_iterations=steps
        )

    @given(dags(), st.sampled_from(PLATFORMS))
    @settings(max_examples=150, deadline=None)
    def test_bottom_levels(self, graph, P):
        assert bottom_levels(graph, P) == reference_bottom_levels(graph, P)


class TestTieBreak:
    def tied_graph(self):
        # "a" and "b" tie for the longest path below the root, which cannot
        # grow.  The root's edge to "b" comes first, so topological_order()
        # visits "b" before "a"; path_ends visits them in slot order.
        g = TaskGraph()
        g.add_task("r", RooflineModel(4.0, 1))
        shared = AmdahlModel(8.0, 1.0)
        g.add_task("a", shared)
        g.add_task("b", shared)
        g.add_edges([("r", "b"), ("r", "a")])
        return g

    def test_the_tail_is_the_first_maximum_in_topological_order(self):
        g = self.tied_graph()
        assert g.topological_order() == ["r", "b", "a"]
        order, ends = g.path_ends([t.model.time(1) for t in g.tasks()])
        # A tail taken in path_ends' visiting order would grow "a".
        assert max(order, key=ends.__getitem__) == g.compiled().index["a"]
        assert cpa_allotment(g, 16, max_iterations=1) == {"r": 1, "a": 1, "b": 2}
        assert reference_cpa_allotment(g, 16, max_iterations=1) == {"r": 1, "a": 1, "b": 2}

    def test_every_step_matches_the_reference(self):
        g = self.tied_graph()
        for steps in range(12):
            assert cpa_allotment(g, 16, max_iterations=steps) == reference_cpa_allotment(
                g, 16, max_iterations=steps
            )
        assert cpa_allotment(g, 16) == reference_cpa_allotment(g, 16)

    def test_a_predecessor_tie_steps_to_the_first_edge_added(self):
        # "x" and "y" tie below the sink, which cannot grow; the edge from
        # "y" was added first, so both walks step back to "y".
        g = TaskGraph()
        shared = AmdahlModel(8.0, 1.0)
        g.add_task("x", shared)
        g.add_task("y", shared)
        g.add_task("z", RooflineModel(4.0, 1))
        g.add_edges([("y", "z"), ("x", "z")])
        assert critical_path_tasks(g, 16) == ["y", "z"]
        assert cpa_allotment(g, 16, max_iterations=1) == {"x": 1, "y": 2, "z": 1}
        assert reference_cpa_allotment(g, 16, max_iterations=1) == {"x": 1, "y": 2, "z": 1}
