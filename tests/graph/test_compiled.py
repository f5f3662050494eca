"""Invariants of ``TaskGraph.compiled()``, pinned against the public queries.

The snapshot is built with C-level builders (``dict(zip(...))``,
``map(len, ...)``, ``dict.fromkeys``); these tests hold it to the
documented layout on random graphs whose edges arrive out of insertion
order and whose tasks share model objects.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import TaskGraph
from repro.speedup import AmdahlModel


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    pool = [AmdahlModel(1.0 + k, 0.5) for k in range(draw(st.integers(1, 4)))]
    graph = TaskGraph()
    ids = draw(st.permutations([f"t{i}" for i in range(n)]))
    for task_id in ids:
        pick = draw(st.integers(-1, len(pool) - 1))  # -1: a fresh model
        graph.add_task(task_id, pool[pick] if pick >= 0 else AmdahlModel(2.0, 0.5))
    rank = draw(st.permutations(range(n)))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    graph.add_edges(draw(st.permutations([p for p in pairs if draw(st.booleans())])))
    return graph


def reference_groups(graph):
    first: dict[int, int] = {}
    return [first.setdefault(id(t.model), len(first)) for t in graph.tasks()]


class TestCompiledLayout:
    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_arrays_match_the_public_queries(self, graph):
        c = graph.compiled()
        ids = list(graph)
        assert list(c.tasks) == graph.tasks()
        assert c.index == {t: i for i, t in enumerate(ids)}
        assert list(c.index) == ids
        assert c.roots == tuple(i for i, t in enumerate(ids) if not graph.predecessors(t))
        assert c.successors == tuple(
            tuple(sorted(ids.index(s) for s in graph.successors(t))) for t in ids
        )
        assert c.in_degree == tuple(graph.in_degree(t) for t in ids)
        assert list(c.groups) == reference_groups(graph)
        assert c.group_count == len({id(t.model) for t in graph.tasks()})
        assert c.version == graph._version

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_array_types(self, graph):
        c = graph.compiled()
        for field in (c.tasks, c.roots, c.successors, c.in_degree, c.groups):
            assert type(field) is tuple
        assert all(type(s) is tuple for s in c.successors)

    def test_groups_are_numbered_by_first_appearance(self):
        a, b, c = AmdahlModel(1.0, 0.5), AmdahlModel(2.0, 0.5), AmdahlModel(3.0, 0.5)
        g = TaskGraph()
        for task_id, model in (("x", c), ("y", a), ("z", c), ("w", b), ("v", a)):
            g.add_task(task_id, model)
        assert g.compiled().groups == (0, 1, 0, 2, 1)
        assert g.compiled().group_count == 3

    def test_successors_and_roots_ascend_under_out_of_order_edges(self):
        g = TaskGraph()
        for t in "abcde":
            g.add_task(t, AmdahlModel(1.0, 0.5))
        g.add_edges([("e", "c"), ("e", "a"), ("d", "b"), ("e", "b")])
        c = g.compiled()
        assert c.roots == (3, 4)
        assert c.successors == ((), (), (), (1,), (0, 1, 2))
        assert c.in_degree == (1, 2, 1, 0, 0)


class TestCompiledVersions:
    def test_add_task_builds_a_new_snapshot(self):
        g = TaskGraph()
        g.add_task("a", AmdahlModel(1.0, 0.5))
        before = g.compiled()
        g.add_task("b", AmdahlModel(1.0, 0.5))
        after = g.compiled()
        assert after is not before and after.version > before.version
        assert len(before.tasks) == 1 and list(before.index) == ["a"]
        assert after.roots == (0, 1) and after.group_count == 2

    def test_add_edge_builds_a_new_snapshot(self):
        g = TaskGraph()
        g.add_task("a", AmdahlModel(1.0, 0.5))
        g.add_task("b", AmdahlModel(1.0, 0.5))
        before = g.compiled()
        g.add_edge("b", "a")
        after = g.compiled()
        assert after is not before
        assert before.successors == ((), ()) and before.in_degree == (0, 0)
        assert after.successors == ((), (0,)) and after.in_degree == (1, 0)
        assert after.roots == (1,)

    def test_an_idempotent_edge_keeps_the_snapshot(self):
        g = TaskGraph()
        g.add_task("a", AmdahlModel(1.0, 0.5))
        g.add_task("b", AmdahlModel(1.0, 0.5))
        g.add_edge("a", "b")
        before = g.compiled()
        g.add_edge("a", "b")
        assert g.compiled() is before
