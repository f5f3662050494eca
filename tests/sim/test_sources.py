"""Unit tests for the StaticGraphSource online-reveal adapter."""

import pytest

from repro.core.scheduler import OnlineScheduler
from repro.exceptions import SimulationError
from repro.graph.taskgraph import TaskGraph
from repro.sim.sources import GraphSource, StaticGraphSource
from repro.speedup import AmdahlModel


class TestStaticGraphSource:
    def test_initial_tasks_are_sources(self, small_graph):
        src = StaticGraphSource(small_graph)
        assert [t.id for t in src.initial_tasks()] == ["a"]

    def test_reveal_order_follows_insertion(self, small_graph):
        src = StaticGraphSource(small_graph)
        src.initial_tasks()
        revealed = src.on_complete("a")
        assert [t.id for t in revealed] == ["b", "c"]

    def test_join_waits_for_all_predecessors(self, small_graph):
        src = StaticGraphSource(small_graph)
        src.initial_tasks()
        src.on_complete("a")
        assert src.on_complete("b") == []  # d still waits on c
        assert [t.id for t in src.on_complete("c")] == ["d"]

    def test_exhaustion(self, small_graph):
        src = StaticGraphSource(small_graph)
        src.initial_tasks()
        for t in ("a", "b", "c"):
            src.on_complete(t)
        assert not src.is_exhausted()
        src.on_complete("d")
        assert src.is_exhausted()

    def test_double_completion_rejected(self, small_graph):
        src = StaticGraphSource(small_graph)
        src.initial_tasks()
        src.on_complete("a")
        with pytest.raises(SimulationError, match="twice"):
            src.on_complete("a")

    def test_unrevealed_completion_rejected(self, small_graph):
        src = StaticGraphSource(small_graph)
        src.initial_tasks()
        with pytest.raises(SimulationError, match="unrevealed"):
            src.on_complete("d")

    def test_realized_graph_is_original(self, small_graph):
        src = StaticGraphSource(small_graph)
        assert src.realized_graph() is small_graph

    def test_satisfies_protocol(self, small_graph):
        assert isinstance(StaticGraphSource(small_graph), GraphSource)


class TestCompiledSnapshot:
    """One adjacency snapshot per graph version, private state per source."""

    def test_sources_of_one_version_share_the_snapshot(self, small_graph):
        assert small_graph.compiled() is small_graph.compiled()

    def test_slot_arrays_follow_insertion_order(self, small_graph):
        compiled = small_graph.compiled()
        assert [t.id for t in compiled.tasks] == ["a", "b", "c", "d"]
        assert compiled.index == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert compiled.roots == (0,)
        assert compiled.successors == ((1, 2), (3,), (3,), ())
        assert compiled.in_degree == (0, 1, 1, 2)

    def test_model_groups_follow_object_identity(self):
        shared = AmdahlModel(1.0, 0.5)
        g = TaskGraph()
        g.add_task("x", shared)
        g.add_task("twin", AmdahlModel(1.0, 0.5))  # equal key, other object
        g.add_task("y", shared)
        compiled = g.compiled()
        assert compiled.groups == (0, 1, 0)
        assert compiled.group_count == 2

    def test_add_task_after_a_run_recompiles(self, small_graph):
        OnlineScheduler.for_family("amdahl", 4).run(small_graph)
        before = small_graph.compiled()
        small_graph.add_task("e", AmdahlModel(1.0, 0.1))
        after = small_graph.compiled()
        assert after is not before and after.version > before.version
        src = StaticGraphSource(small_graph)
        assert [t.id for t in src.initial_tasks()] == ["a", "e"]
        result = OnlineScheduler.for_family("amdahl", 4).run(small_graph)
        assert len(result.schedule) == 5

    def test_add_edge_after_a_run_recompiles(self, small_graph):
        OnlineScheduler.for_family("amdahl", 4).run(small_graph)
        small_graph.add_task("e", AmdahlModel(1.0, 0.1))
        small_graph.compiled()
        small_graph.add_edge("e", "b")
        src = StaticGraphSource(small_graph)
        src.initial_tasks()
        assert [t.id for t in src.on_complete("a")] == ["c"]
        assert [t.id for t in src.on_complete("e")] == ["b"]
        result = OnlineScheduler.for_family("amdahl", 4).run(small_graph)
        assert result.schedule["b"].start >= result.schedule["e"].end

    def test_successors_follow_insertion_order_not_edge_order(self):
        g = TaskGraph()
        for t in ("a", "x", "y", "z"):
            g.add_task(t, AmdahlModel(1.0, 0.5))
        for t in ("z", "x", "y"):
            g.add_edge("a", t)
        src = StaticGraphSource(g)
        src.initial_tasks()
        assert [t.id for t in src.on_complete("a")] == ["x", "y", "z"]

    def test_two_sources_keep_separate_state(self, small_graph):
        first = StaticGraphSource(small_graph)
        second = StaticGraphSource(small_graph)
        first.initial_tasks()
        assert [t.id for t in first.on_complete("a")] == ["b", "c"]
        first.on_complete("b")
        # The second source has revealed and completed nothing yet.
        with pytest.raises(SimulationError, match="unrevealed"):
            second.on_complete("a")
        second.initial_tasks()
        assert [t.id for t in second.on_complete("a")] == ["b", "c"]
        assert second.on_complete("b") == []
        assert [t.id for t in first.on_complete("c")] == ["d"]
        first.on_complete("d")
        assert first.is_exhausted() and not second.is_exhausted()

    def test_errors_after_reuse_stay_typed(self, small_graph):
        OnlineScheduler.for_family("amdahl", 4).run(small_graph)
        src = StaticGraphSource(small_graph)
        src.initial_tasks()
        with pytest.raises(SimulationError, match="unrevealed"):
            src.on_complete("b")
        with pytest.raises(SimulationError, match="unrevealed"):
            src.on_complete("nope")
        src.on_complete("a")
        with pytest.raises(SimulationError, match="twice"):
            src.on_complete("a")
