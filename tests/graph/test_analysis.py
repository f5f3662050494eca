"""Unit tests for A_min, C_min, and graph statistics (Definitions 1-2)."""

import pytest

from repro.graph import TaskGraph
from repro.graph.analysis import (
    critical_path_tasks,
    graph_stats,
    minimum_critical_path,
    minimum_total_area,
)
from repro.graph.generators import erdos_renyi_dag, layered_random
from repro.speedup import AmdahlModel, RandomModelFactory, RooflineModel


class TestMinimumTotalArea:
    def test_definition_one(self, small_graph):
        P = 16
        expected = sum(t.model.a_min(P) for t in small_graph.tasks())
        assert minimum_total_area(small_graph, P) == pytest.approx(expected)

    def test_amdahl_values(self, small_graph):
        # a_min = w + d for each task: 9 + 18 + 4.5 + 2.25.
        assert minimum_total_area(small_graph, 8) == pytest.approx(33.75)

    def test_empty_graph(self):
        assert minimum_total_area(TaskGraph(), 4) == 0.0


class TestMinimumCriticalPath:
    def test_single_task(self):
        g = TaskGraph()
        g.add_task("a", RooflineModel(12.0, 4))
        assert minimum_critical_path(g, 16) == pytest.approx(3.0)  # t(4)

    def test_chain_sums_t_min(self):
        g = TaskGraph()
        g.add_task(0, AmdahlModel(8.0, 1.0))
        g.add_task(1, AmdahlModel(4.0, 2.0))
        g.add_edge(0, 1)
        P = 8
        expected = (8.0 / 8 + 1.0) + (4.0 / 8 + 2.0)
        assert minimum_critical_path(g, P) == pytest.approx(expected)

    def test_diamond_takes_heavier_branch(self, small_graph):
        P = 8
        t = {task.id: task.model.t_min(P) for task in small_graph.tasks()}
        expected = t["a"] + max(t["b"], t["c"]) + t["d"]
        assert minimum_critical_path(small_graph, P) == pytest.approx(expected)

    def test_empty_graph(self):
        assert minimum_critical_path(TaskGraph(), 4) == 0.0

    def test_grows_as_P_shrinks(self, small_graph):
        assert minimum_critical_path(small_graph, 1) > minimum_critical_path(
            small_graph, 64
        )


class TestCriticalPathTasks:
    def test_path_achieves_c_min(self, small_graph):
        P = 8
        path = critical_path_tasks(small_graph, P)
        total = sum(small_graph.task(t).model.t_min(P) for t in path)
        assert total == pytest.approx(minimum_critical_path(small_graph, P))

    def test_path_is_connected(self, small_graph):
        path = critical_path_tasks(small_graph, 8)
        for u, v in zip(path, path[1:], strict=False):
            assert v in small_graph.successors(u)

    def test_path_spans_source_to_sink(self, small_graph):
        path = critical_path_tasks(small_graph, 8)
        assert small_graph.predecessors(path[0]) == []
        assert small_graph.successors(path[-1]) == []

    def test_empty_graph(self):
        assert critical_path_tasks(TaskGraph(), 4) == []

    @pytest.mark.parametrize("family", ["roofline", "communication", "amdahl", "general"])
    def test_path_weight_is_c_min_on_random_graphs(self, family):
        for seed in range(6):
            factory = RandomModelFactory(family, seed=seed)
            if seed % 2:
                g = erdos_renyi_dag(30, factory, edge_probability=0.15, seed=seed)
            else:
                g = layered_random(6, 5, factory, edge_probability=0.3, seed=seed)
            for P in (1, 16, 512):
                path = critical_path_tasks(g, P)
                assert path
                for u, v in zip(path, path[1:], strict=False):
                    assert v in g.successors(u)
                total = sum(g.task(t).model.t_min(P) for t in path)
                assert total == pytest.approx(minimum_critical_path(g, P), rel=1e-12)


class TestGraphStats:
    def test_diamond(self, small_graph):
        stats = graph_stats(small_graph, 8)
        assert stats.n_tasks == 4
        assert stats.n_edges == 4
        assert stats.depth == 3
        assert stats.width == 2  # the {b, c} layer
        assert stats.min_total_area == pytest.approx(33.75)

    def test_str_contains_fields(self, small_graph):
        assert "n=4" in str(graph_stats(small_graph, 8))
