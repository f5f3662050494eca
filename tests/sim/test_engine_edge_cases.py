"""Engine edge cases: ill-behaved sources, combined capabilities, guards."""

import pytest

from repro.baselines.online import MaxUsefulAllocator
from repro.exceptions import InvalidParameterError, ScheduleError, SimulationError
from repro.graph import TaskGraph
from repro.sim import Allocation, Allocator, ListScheduler, ReleasedTaskSource
from repro.sim.sources import StaticGraphSource, slot_view
from repro.speedup import AmdahlModel, RooflineModel, SpeedupModel


class _LyingSource:
    """Claims exhaustion incorrectly: reveals nothing but holds tasks."""

    def initial_tasks(self):
        return []

    def on_complete(self, task_id):  # pragma: no cover - never called
        return []

    def is_exhausted(self):
        return False  # lies: nothing was ever revealed

    def realized_graph(self):
        return TaskGraph()


class _DoubleRevealSource:
    def __init__(self):
        self._g = TaskGraph()
        self._task = self._g.add_task("dup", AmdahlModel(1.0, 1.0))

    def initial_tasks(self):
        return [self._task, self._task]

    def on_complete(self, task_id):
        return []

    def is_exhausted(self):
        return True

    def realized_graph(self):
        return self._g


class TestIllBehavedSources:
    def test_unexhausted_source_detected(self):
        with pytest.raises(SimulationError, match="unrevealed"):
            ListScheduler(4, MaxUsefulAllocator()).run(_LyingSource())

    def test_double_reveal_detected(self):
        with pytest.raises(SimulationError, match="revealed twice"):
            ListScheduler(4, MaxUsefulAllocator()).run(_DoubleRevealSource())

    def test_release_source_unknown_completion(self):
        src = ReleasedTaskSource([(0.0, "a", AmdahlModel(1.0, 1.0))])
        src.initial_tasks()
        with pytest.raises(SimulationError, match="unknown"):
            src.on_complete("ghost")

    def test_release_source_double_completion(self):
        src = ReleasedTaskSource([(0.0, "a", AmdahlModel(1.0, 1.0))])
        src.initial_tasks()
        src.on_complete("a")
        with pytest.raises(SimulationError, match="twice"):
            src.on_complete("a")


class TestCombinedCapabilities:
    def test_timed_source_with_priority_rule(self):
        """Releases + a priority rule: later-released high-priority task
        overtakes queued earlier arrivals."""
        entries = [
            (0.0, "hog", RooflineModel(40.0, 4)),  # runs [0, 10] on all 4
            (1.0, "low", RooflineModel(4.0, 4)),
            (2.0, "high", RooflineModel(4.0, 4)),
        ]
        src = ReleasedTaskSource(entries)
        scheduler = ListScheduler(
            4,
            MaxUsefulAllocator(),
            priority=lambda task, alloc: 0 if task.id == "high" else 1,
        )
        result = scheduler.run(src)
        assert result.schedule["high"].start < result.schedule["low"].start

    def test_reveal_times_with_releases(self):
        entries = [(3.0, "late", RooflineModel(4.0, 4))]
        result = ListScheduler(4, MaxUsefulAllocator()).run(
            ReleasedTaskSource(entries)
        )
        assert result.revealed_at["late"] == pytest.approx(3.0)
        assert result.waiting_times()["late"] == pytest.approx(0.0)

    def test_release_ties_keep_input_order(self):
        m = RooflineModel(4.0, 2)
        entries = [(1.0, "first", m), (1.0, "second", m)]
        result = ListScheduler(2, MaxUsefulAllocator()).run(
            ReleasedTaskSource(entries)
        )
        assert result.schedule["first"].start < result.schedule["second"].start


class _NegativeTimeModel(SpeedupModel):
    """A custom model whose time is negative at every allotment."""

    def time(self, p):
        return -1.0

    def cache_key(self):
        return ("negative",)


class _FixedAllocator(Allocator):
    """Returns one allocation whatever the model; with the LRU on or off."""

    def __init__(self, allocation, cache=True):
        self._allocation = allocation
        if not cache:
            self.configure_cache(0)

    def allocate(self, model, P, *, free=None):
        return self._allocation


class _DuckAllocation:
    """Looks like an Allocation but skips its validation."""

    def __init__(self, procs):
        self.initial = self.final = procs


class _AlwaysAbove(int):
    """A processor count that claims to exceed every free count."""

    def __gt__(self, other):
        return True


class _RevealAfterCompletion:
    """Reveals ``a`` at time 0, then ``a`` again when it completes."""

    def __init__(self):
        self._g = TaskGraph()
        self._task = self._g.add_task("a", AmdahlModel(1.0, 1.0))

    def initial_tasks(self):
        return [self._task]

    def on_complete(self, task_id):
        return [self._task]

    def is_exhausted(self):
        return True

    def realized_graph(self):
        return self._g


class _RevealsAheadOfGraph:
    """Reveals every task at once but reports completions to a static source."""

    def __init__(self, graph):
        self._inner = StaticGraphSource(graph)
        self._graph = graph

    def initial_tasks(self):
        self._inner.initial_tasks()
        return self._graph.tasks()

    def on_complete(self, task_id):
        return self._inner.on_complete(task_id)

    def is_exhausted(self):
        return self._inner.is_exhausted()

    def realized_graph(self):
        return self._graph


@pytest.fixture
def two_step_graph():
    g = TaskGraph()
    g.add_task("a", AmdahlModel(1.0, 1.0))
    g.add_task("b", AmdahlModel(1.0, 1.0))
    g.add_edge("a", "b")
    return g


class TestLoopGuards:
    """Every error the fault-free loop raises keeps its exception type."""

    @pytest.mark.parametrize("source", [[1, 2], None, "graph"])
    def test_non_source_is_a_typed_error(self, source):
        with pytest.raises(InvalidParameterError, match="TaskGraph or a GraphSource"):
            ListScheduler(4, MaxUsefulAllocator()).run(source)

    @pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
    def test_negative_time_is_end_before_start(self, cache):
        g = TaskGraph()
        g.add_task("neg", _NegativeTimeModel())
        allocator = _FixedAllocator(Allocation(initial=1, final=1), cache)
        with pytest.raises(ScheduleError, match="'neg': end -1.0 before start 0.0"):
            ListScheduler(4, allocator).run(g)

    def test_task_revealed_again_after_completion(self):
        with pytest.raises(SimulationError, match="revealed twice"):
            ListScheduler(4, MaxUsefulAllocator()).run(_RevealAfterCompletion())

    def test_completion_of_a_task_the_source_never_revealed(self):
        g = TaskGraph()
        g.add_task("a", RooflineModel(10.0, 1))
        g.add_task("b", RooflineModel(1.0, 1))  # finishes before its predecessor
        g.add_edge("a", "b")
        with pytest.raises(SimulationError, match="unrevealed task 'b'"):
            ListScheduler(4, MaxUsefulAllocator()).run(_RevealsAheadOfGraph(g))

    def test_slot_view_rejects_unrevealed_and_repeated_completions(self, two_step_graph):
        view = slot_view(StaticGraphSource(two_step_graph))
        with pytest.raises(SimulationError, match="unrevealed task 'a'"):
            view.on_complete(0)  # a root, before initial()
        assert view.initial() == [0]
        with pytest.raises(SimulationError, match="unrevealed task 'b'"):
            view.on_complete(1)
        assert view.on_complete(0) == [1]
        with pytest.raises(SimulationError, match="'a' completed twice"):
            view.on_complete(0)
        assert not view.is_exhausted()
        assert view.on_complete(1) == []
        assert view.is_exhausted()

    @pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
    @pytest.mark.parametrize("procs", [0, 5])
    def test_infeasible_allocation(self, two_step_graph, cache, procs):
        allocator = _FixedAllocator(_DuckAllocation(procs), cache)
        with pytest.raises(SimulationError, match="infeasible allocation"):
            ListScheduler(4, allocator).run(two_step_graph)

    def test_deadlock(self, two_step_graph):
        # Every feasible count fits an idle platform, so only a count that
        # compares above every free count can reach the deadlock guard.
        one = _AlwaysAbove(1)
        allocator = _FixedAllocator(Allocation(initial=one, final=one))
        with pytest.raises(SimulationError, match=r"deadlock: tasks \['a'\]"):
            ListScheduler(4, allocator).run(two_step_graph)

    def test_disconnected_source(self):
        with pytest.raises(SimulationError, match="disconnected"):
            ListScheduler(4, MaxUsefulAllocator()).run(_LyingSource())
