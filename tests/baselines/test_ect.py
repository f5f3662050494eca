"""Tests for the earliest-completion-time (Wang & Cheng) scheduler."""

import pytest

from repro.baselines import EctScheduler, make_baseline
from repro.bounds import makespan_lower_bound
from repro.graph import TaskGraph
from repro.graph.generators import chain, fork_join, independent_tasks
from repro.speedup import AmdahlModel, CallableModel, RandomModelFactory, RooflineModel


def amdahl():
    return AmdahlModel(8.0, 1.0)


class TestBasics:
    def test_single_task_full_allocation(self):
        g = TaskGraph()
        g.add_task("a", RooflineModel(12.0, 4))
        result = EctScheduler(8).run(g)
        # ECT picks the completion-time-minimizing allocation: p = 4.
        assert result.schedule["a"].procs == 4
        assert result.makespan == pytest.approx(3.0)

    def test_chain_sequential(self):
        g = chain(3, amdahl)
        result = EctScheduler(4).run(g)
        result.schedule.validate(g)
        assert result.makespan == pytest.approx(3 * AmdahlModel(8.0, 1.0).time(4))

    def test_empty_graph(self):
        assert EctScheduler(4).run(TaskGraph()).makespan == 0.0

    def test_independent_tasks_feasible(self):
        g = independent_tasks(10, amdahl)
        result = EctScheduler(4).run(g)
        result.schedule.validate(g)

    def test_respects_lower_bound(self, small_graph):
        result = EctScheduler(8).run(small_graph)
        assert result.makespan >= makespan_lower_bound(small_graph, 8).value * (1 - 1e-9)


class TestWaitingBehaviour:
    def test_waits_for_larger_allocation_when_worth_it(self):
        """ECT's defining move: idle now to grab more processors soon.

        A long roofline task (w=100, p-tilde=8) becomes ready while 6 of 8
        processors are busy for 1 more time unit.  Starting now on 2 procs
        completes at t=51; waiting until t=1 for all 8 completes at 13.5.
        """
        g2 = TaskGraph()
        g2.add_task("hog", RooflineModel(6.0, 6))  # occupies 6 procs until t=1
        g2.add_task("big", RooflineModel(100.0, 8))
        result = EctScheduler(8).run(g2)
        result.schedule.validate(g2)
        assert result.schedule["big"].start == pytest.approx(1.0)
        assert result.schedule["big"].procs == 8
        assert result.makespan == pytest.approx(1.0 + 100.0 / 8)

    def test_starts_now_when_waiting_does_not_pay(self):
        g = TaskGraph()
        g.add_task("hog", RooflineModel(100.0, 6))  # busy until t=100
        g.add_task("small", RooflineModel(2.0, 8))
        result = EctScheduler(8).run(g)
        # Waiting until t=100 for 8 procs is absurd; start on 2 now.
        assert result.schedule["small"].start == 0.0
        assert result.schedule["small"].procs == 2

    def test_tie_prefers_fewer_processors(self):
        g = TaskGraph()
        g.add_task("flat", RooflineModel(10.0, 2))  # t(2) = t(3) = ... = 5
        result = EctScheduler(8).run(g)
        assert result.schedule["flat"].procs == 2


class TestComparisons:
    def test_beats_list_scheduling_on_its_favourable_case(self):
        """The waiting trick must pay off against grab-free list scheduling.

        'big' is revealed at t=1 while 'hog' still holds 6 of 8 processors
        (until t=3).  Grab-free fixes big's allocation at reveal (2 procs,
        completion 51); ECT waits two time units for all 8 (completion
        15.5).
        """

        def build():
            g = TaskGraph()
            g.add_task("hog", RooflineModel(18.0, 6))  # 6 procs, [0, 3]
            g.add_task("trigger", RooflineModel(1.0, 1))  # 1 proc, [0, 1]
            g.add_task("big", RooflineModel(100.0, 8))
            g.add_edge("trigger", "big")
            return g

        ect = EctScheduler(8).run(build())
        greedy = make_baseline("grab-free", 8).run(build())
        assert ect.schedule["big"].procs == 8
        assert greedy.schedule["big"].procs == 2
        assert ect.makespan == pytest.approx(15.5)
        assert ect.makespan < greedy.makespan

    def test_factory_name(self):
        scheduler = make_baseline("ect", 16)
        assert isinstance(scheduler, EctScheduler)

    def test_feasible_on_random_workloads(self):
        factory = RandomModelFactory(family="general", seed=2)
        g = fork_join(6, factory, stages=3)
        result = EctScheduler(16).run(g)
        result.schedule.validate(g)

    def test_shared_keys_and_keyless_models_schedule_alike(self):
        """The per-run time table is transparent: keyed models share one
        curve per cache_key, keyless wrappers of the same functions get
        one per task, and both schedules agree bit for bit."""
        pool = [AmdahlModel(8.0, 1.0), AmdahlModel(30.0, 0.5), RooflineModel(12.0, 5)]
        picks = [0, 1, 0, 2, 1, 0, 2, 2, 0, 1]

        def build(wrap):
            g = TaskGraph()
            for i, k in enumerate(picks):
                g.add_task(i, wrap(pool[k]))
                if i >= 3:
                    g.add_edge(i - 3, i)
            return g

        keyed = EctScheduler(8).run(build(lambda m: m))
        keyless = EctScheduler(8).run(build(lambda m: CallableModel(m.time, monotonic=True)))
        assert keyed.schedule.entries == keyless.schedule.entries
