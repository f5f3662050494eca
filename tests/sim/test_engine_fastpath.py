"""Engine fast-path observability: EngineStats, scan skipping, priorities.

Performance counters are pure observability — these tests pin down their
semantics (what counts as a scan, a skip, a step) and the fast path's
user-visible guarantees (priority ordering via sorted insertion, stats on
resilient runs, ``engine.*`` counters in the ambient metrics registry).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.arbitrary import AdaptiveChainSource, chain_forest_platform
from repro.baselines.cpa import AllotmentAllocator
from repro.baselines.online import AvailableProcessorsAllocator, MaxUsefulAllocator
from repro.core.allocator import LpaAllocator
from repro.core.constants import MU_STAR
from repro.core.scheduler import OnlineScheduler
from repro.exceptions import SimulationError
from repro.graph.generators import chain, independent_tasks, layered_random
from repro.graph.taskgraph import TaskGraph
from repro.obs.events import AllocationDecided, CollectingTracer
from repro.obs.metrics import collect_metrics
from repro.resilience.faults import FaultTrace
from repro.resilience.retry import RetryPolicy
from repro.sim.allocation import Allocation
from repro.sim.engine import EngineStats, ListScheduler, SlotLoop
from repro.sim.sources import ReleasedTaskSource
from repro.speedup import (
    AmdahlModel,
    CallableModel,
    CommunicationModel,
    GeneralModel,
    RooflineModel,
)


def comm():
    return CommunicationModel(w=50.0, c=0.5)


class TestEngineStats:
    def test_counters_on_plain_run(self):
        graph = independent_tasks(40, comm)
        result = OnlineScheduler.for_family("communication", 16).run(graph)
        stats = result.stats
        assert stats is not None
        assert stats.tasks_started == 40
        assert stats.events > 0
        assert stats.allocator_calls == 40
        # Identical kernels: one miss, the rest cache hits.
        assert stats.alloc_cache_misses == 1
        assert stats.alloc_cache_hits == 39
        assert stats.alloc_cache_hit_rate() == pytest.approx(39 / 40)

    def test_scan_steps_near_linear_on_wide_set(self):
        """The min-demand bound keeps total scan work ~n, not ~n^2."""
        n = 400
        graph = independent_tasks(n, comm)
        result = OnlineScheduler.for_family("communication", 16).run(graph)
        assert result.stats.scan_steps <= 3 * n

    def test_hit_rate_zero_when_no_calls(self):
        assert EngineStats().alloc_cache_hit_rate() == 0.0

    def test_as_dict_round_trip(self):
        a = EngineStats(events=3, queue_scans=4, alloc_cache_hits=5, alloc_cache_misses=5)
        d = a.as_dict()
        assert d["events"] == 3 and d["queue_scans"] == 4
        assert d["alloc_cache_hit_rate"] == 0.5
        assert EngineStats.from_dict(d) == a
        assert "5 cache hits" in a.summary()


class TestScanSkipping:
    def test_releases_into_full_platform_are_skipped_scans(self):
        """Tasks arriving while nothing can fit must not walk the queue."""
        model = RooflineModel(w=100.0, max_parallelism=4)  # 4 procs, 25s
        releases = [(0.0, model), (1.0, model), (2.0, model), (3.0, model)]
        source = ReleasedTaskSource(releases)
        result = ListScheduler(4, MaxUsefulAllocator()).run(source)
        stats = result.stats
        assert stats.tasks_started == 4
        # Releases at t=1,2,3 land on a saturated platform: the min-demand
        # bound proves those passes useless without touching the queue.
        assert stats.scans_skipped == 3
        # Started tasks are each examined exactly once over the whole run.
        assert stats.scan_steps == 4

    def test_chain_never_scans_blocked_tail(self):
        graph = chain(50, comm)
        result = OnlineScheduler.for_family("communication", 8).run(graph)
        # One task revealed per completion: every scan examines one entry.
        assert result.stats.scan_steps == 50
        assert result.stats.queue_scans == 50


class TestPriorityOrdering:
    def test_priority_orders_simultaneous_tasks(self):
        """On P=1, equal-demand tasks must execute in priority order."""
        g = TaskGraph()
        works = [30.0, 10.0, 50.0, 20.0, 40.0]
        for i, w in enumerate(works):
            g.add_task(f"t{i}", CommunicationModel(w=w, c=0.5))
        scheduler = ListScheduler(
            1,
            LpaAllocator(MU_STAR["communication"]),
            priority=lambda task, alloc: task.model.w,  # smallest work first
        )
        result = scheduler.run(g)
        order = sorted(result.schedule.entries, key=lambda e: e.start)
        assert [e.task_id for e in order] == ["t1", "t3", "t0", "t4", "t2"]

    def test_priority_ties_keep_admission_order(self):
        g = TaskGraph()
        for i in range(6):
            g.add_task(f"t{i}", comm())
        scheduler = ListScheduler(
            1, LpaAllocator(MU_STAR["communication"]), priority=lambda t, a: 0
        )
        result = scheduler.run(g)
        order = sorted(result.schedule.entries, key=lambda e: e.start)
        assert [e.task_id for e in order] == [f"t{i}" for i in range(6)]


class TestResilientStats:
    def test_stats_attached_and_count_reallocations(self):
        graph = chain(6, comm)
        trace = FaultTrace([(10.0, "fail", 0), (40.0, "recover", 0)])
        scheduler = OnlineScheduler.for_family("communication", 4)
        result = scheduler.run(graph, faults=trace, retry=RetryPolicy(max_attempts=5))
        stats = result.stats
        assert stats is not None
        assert stats.tasks_started >= 6
        # Capacity changes force re-allocations beyond one call per task.
        assert stats.allocator_calls >= 6
        assert stats.queue_scans > 0


class TestCollectMetrics:
    def test_registry_accumulates_across_runs(self):
        graph = independent_tasks(10, comm)
        scheduler = OnlineScheduler.for_family("communication", 8)
        with collect_metrics() as registry:
            scheduler.run(graph)
            scheduler.run(independent_tasks(5, comm))
            assert registry.value("engine.tasks_started") == 15
        # Outside the block new runs no longer accumulate.
        scheduler.run(independent_tasks(3, comm))
        assert registry.value("engine.tasks_started") == 15

    def test_nested_collection_restores_outer_registry(self):
        graph = independent_tasks(4, comm)
        scheduler = OnlineScheduler.for_family("communication", 8)
        with collect_metrics() as outer:
            with collect_metrics() as inner:
                scheduler.run(graph)
            assert inner.value("engine.tasks_started") == 4
            scheduler.run(graph)
        assert outer.value("engine.tasks_started") == 4  # only the run outside `inner`


@pytest.fixture
def key_calls(monkeypatch):
    """Every ``cache_key()`` call on an Equation (1) model, in order."""
    calls = []
    original = GeneralModel.cache_key

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GeneralModel, "cache_key", spy)
    return calls


def cache_delta(allocator, run):
    """Run ``run()`` and return (result, allocator cache-counter deltas)."""
    before = allocator.cache_info()
    result = run()
    after = allocator.cache_info()
    return result, (
        after.hits - before.hits,
        after.misses - before.misses,
        after.bypasses - before.bypasses,
    )


def stat_counts(stats):
    return stats.alloc_cache_hits, stats.alloc_cache_misses, stats.alloc_cache_bypasses


class _ListKeyModel(GeneralModel):
    def cache_key(self):  # lists are unhashable: the LRU and the table bypass
        return ["eq1", self.w, self.d, self.c, self.max_parallelism]


def _model_source(kind, params, rng):
    """A model factory drawing from ``params`` with one way of sharing models.

    ``shared``: tasks share a few model objects.  ``equal``: every task gets
    a fresh object, so distinct objects carry equal keys.  ``keyless`` and
    ``unhashable``: shared objects whose key is ``None`` or a list.
    """
    if kind == "equal":
        return lambda: GeneralModel(*params[int(rng.integers(len(params)))])
    if kind == "shared":
        pool = [GeneralModel(*p) for p in params]
    elif kind == "keyless":
        pool = [CallableModel(GeneralModel(*p).time, monotonic=True) for p in params]
    else:
        pool = [_ListKeyModel(*p) for p in params]
    return lambda: pool[int(rng.integers(len(pool)))]


def _source_builder(shape, kind, family, seed):
    """A callable building one fresh, deterministic source per run."""
    if shape == "adaptive":
        return lambda: AdaptiveChainSource(2 + seed % 2)

    def build():
        rng = np.random.default_rng(seed)
        params = [
            (
                float(rng.uniform(1.0, 100.0)),
                float(rng.uniform(0.0, 2.0)) if family in ("amdahl", "general") else 0.0,
                float(rng.uniform(0.0, 0.5)) if family in ("communication", "general") else 0.0,
                int(rng.integers(1, 64)) if family in ("roofline", "general") else None,
            )
            for _ in range(int(rng.integers(1, 5)))
        ]
        factory = _model_source(kind, params, rng)
        if shape == "static":
            return layered_random(
                4, 6, factory, edge_probability=0.3, seed=np.random.default_rng(seed + 1)
            )
        return ReleasedTaskSource(
            [(float(rng.integers(0, 5)), factory()) for _ in range(20)]
        )

    return build


class TestRevealTable:
    """One allocation and duration per distinct cache_key per run."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["static", "released", "adaptive"]),
        kind=st.sampled_from(["shared", "equal", "keyless", "unhashable"]),
        P=st.sampled_from([1, 3, 16, 64, 1000]),
        family=st.sampled_from(["roofline", "communication", "amdahl", "general"]),
        fifo=st.booleans(),
    )
    def test_schedules_match_an_uncached_run(self, seed, shape, kind, P, family, fifo):
        build = _source_builder(shape, kind, family, seed)
        if shape == "adaptive":
            P = chain_forest_platform(2 + seed % 2)[2]
        priority = None if fifo else (lambda task, alloc: -alloc.final)
        cached = ListScheduler(P, LpaAllocator(MU_STAR[family]), priority=priority)
        uncached_alloc = LpaAllocator(MU_STAR[family])
        uncached_alloc.configure_cache(0)
        uncached = ListScheduler(P, uncached_alloc, priority=priority)

        result, delta = cache_delta(cached.allocator, lambda: cached.run(build()))
        reference = uncached.run(build())
        assert result.schedule.entries == reference.schedule.entries
        assert list(result.allocations.items()) == list(reference.allocations.items())
        assert list(result.revealed_at.items()) == list(reference.revealed_at.items())
        assert delta == stat_counts(result.stats)
        n = len(result.schedule)
        assert sum(delta) == result.stats.allocator_calls == result.stats.tasks_started == n
        assert reference.stats.alloc_cache_bypasses == n
        if shape != "adaptive" and kind in ("keyless", "unhashable"):
            assert delta == (0, 0, n)
        else:
            keys = {result.graph.task(t).model.cache_key() for t in result.graph}
            assert delta == (n - len(keys), len(keys), 0)
        tracer = CollectingTracer()
        assert cached.run(build(), tracer=tracer).schedule.entries == result.schedule.entries

    def test_traced_run_reports_table_hits(self):
        graph = independent_tasks(12, comm)
        scheduler = OnlineScheduler.for_family("communication", 16)
        tracer = CollectingTracer()
        result = scheduler.run(graph, tracer=tracer)
        caches = [e.cache for e in tracer.of_type(AllocationDecided)]
        assert caches[0] == "miss" and caches[1:] == ["hit"] * 11
        assert stat_counts(result.stats) == (11, 1, 0)
        assert result.schedule.entries == scheduler.run(graph).schedule.entries

    @pytest.mark.parametrize(
        "first, second",
        [
            (RooflineModel(w=100.0, max_parallelism=8), GeneralModel(100.0, 0.0, 0.0, 8)),
            (GeneralModel(100.0, 0.0, 0.0, 8), RooflineModel(w=100.0, max_parallelism=8)),
            (CommunicationModel(w=50.0, c=0.5), GeneralModel(50.0, 0.0, 0.5)),
            (GeneralModel(50.0, 0.0, 0.5), CommunicationModel(w=50.0, c=0.5)),
        ],
    )
    def test_equal_keys_share_bit_identical_durations(self, first, second):
        assert first.cache_key() == second.cache_key()
        graph = TaskGraph()
        graph.add_task("first", first)
        graph.add_task("second", second)
        result = OnlineScheduler.for_family("general", 64).run(graph)
        assert stat_counts(result.stats) == (1, 1, 0)
        for task_id, model in (("first", first), ("second", second)):
            entry = result.schedule[task_id]
            assert entry.start == 0.0
            assert entry.end == model.time(entry.procs)

    @pytest.mark.parametrize(
        "make_allocator",
        [
            AvailableProcessorsAllocator,
            lambda: AllotmentAllocator({i: 2 for i in range(6)}),
        ],
        ids=["uses_free", "allocate_task"],
    )
    def test_task_and_free_aware_allocators_bypass_the_table(self, make_allocator, key_calls):
        graph = independent_tasks(6, lambda: AmdahlModel(8.0, 1.0))
        allocator = make_allocator()
        result, delta = cache_delta(allocator, lambda: ListScheduler(8, allocator).run(graph))
        assert key_calls == []
        assert delta == stat_counts(result.stats)
        assert result.stats.alloc_cache_hits == 0

    def test_disabled_cache_bypasses_the_table(self, key_calls):
        graph = independent_tasks(6, lambda: AmdahlModel(8.0, 1.0))
        allocator = LpaAllocator(MU_STAR["amdahl"])
        allocator.configure_cache(0)
        result = ListScheduler(8, allocator).run(graph)
        assert key_calls == []
        assert stat_counts(result.stats) == (0, 0, 6)

    def test_keyless_models_bypass(self):
        graph = independent_tasks(5, lambda: CallableModel(lambda p: 10.0 / p + 1.0))
        allocator = LpaAllocator(MU_STAR["general"])
        result, delta = cache_delta(allocator, lambda: ListScheduler(8, allocator).run(graph))
        assert delta == stat_counts(result.stats) == (0, 0, 5)

    def test_one_cache_key_call_per_miss(self, key_calls):
        models = iter([GeneralModel(10.0 + i, 1.0, 0.1) for i in range(9)])
        graph = independent_tasks(9, models.__next__)
        allocator = LpaAllocator(MU_STAR["general"])
        result = ListScheduler(16, allocator).run(graph)
        assert stat_counts(result.stats) == (0, 9, 0)
        assert len(key_calls) == 9
        key_calls.clear()
        allocator.allocate_cached(GeneralModel(5.0, 1.0, 0.1), 16)
        assert len(key_calls) == 1

    def test_one_cache_key_call_per_model_object(self, key_calls):
        shared = GeneralModel(30.0, 1.0, 0.1)
        equal = [GeneralModel(30.0, 1.0, 0.1) for _ in range(3)]
        graph = TaskGraph()
        for i in range(12):
            graph.add_task(("shared", i), shared)
            graph.add_task(("equal", i), equal[i % 3])
        result = OnlineScheduler.for_family("general", 16).run(graph)
        assert stat_counts(result.stats) == (23, 1, 0)
        assert key_calls == [shared, *equal]

    def test_model_mutated_between_runs_is_resolved_afresh(self):
        def build(model):
            return layered_random(
                3, 5, lambda: model, edge_probability=0.4, seed=np.random.default_rng(3)
            )

        model = GeneralModel(40.0, 1.0, 0.2)
        graph = build(model)
        scheduler = OnlineScheduler.for_family("general", 64)
        first = scheduler.run(graph)
        model.w, model.c = 4000.0, 0.001
        again = scheduler.run(graph)
        fresh = OnlineScheduler.for_family("general", 64).run(
            build(GeneralModel(4000.0, 1.0, 0.001))
        )
        assert again.allocations != first.allocations
        assert again.schedule.entries == fresh.schedule.entries
        assert list(again.allocations.items()) == list(fresh.allocations.items())
        assert stat_counts(again.stats) == (len(graph) - 1, 1, 0)


class TestDirectMissPath:
    """Untraced misses at full capacity call ``allocate_keyed`` without ``consult``."""

    @staticmethod
    def fresh_models(n):
        models = iter([AmdahlModel(10.0 + i, 0.5) for i in range(n)])
        return layered_random(
            4, 5, models.__next__, edge_probability=0.3, seed=np.random.default_rng(5)
        )

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``LpaAllocator.allocate`` and ``SlotLoop.consult`` calls."""
        counts = {"allocate": 0, "consult": 0}
        allocate, consult = LpaAllocator.allocate, SlotLoop.consult

        def counting_allocate(self, *args, **kwargs):
            counts["allocate"] += 1
            return allocate(self, *args, **kwargs)

        def counting_consult(self, *args, **kwargs):
            counts["consult"] += 1
            return consult(self, *args, **kwargs)

        monkeypatch.setattr(LpaAllocator, "allocate", counting_allocate)
        monkeypatch.setattr(SlotLoop, "consult", counting_consult)
        return counts

    @pytest.mark.parametrize("mode", ["plain", "checked", "traced"])
    def test_one_allocate_per_miss_and_exact_counters(self, calls, mode):
        graph = self.fresh_models(20)
        n = len(graph)
        allocator = LpaAllocator(MU_STAR["amdahl"])
        scheduler = ListScheduler(64, allocator)
        tracer = CollectingTracer() if mode == "traced" else None
        for run in range(2):  # the second run hits the allocator's LRU
            calls["allocate"] = calls["consult"] = 0
            result, delta = cache_delta(
                allocator,
                lambda: scheduler.run(graph, check_invariants=mode == "checked", tracer=tracer),
            )
            assert delta == stat_counts(result.stats)
            expected = (n, 0, 0) if run else (0, n, 0)
            assert delta == expected
            assert calls["allocate"] == (0 if run else n)
            assert calls["consult"] == (n if mode == "traced" else 0)
        if tracer is not None:
            caches = [e.cache for e in tracer.of_type(AllocationDecided)]
            assert caches == ["miss"] * n + ["hit"] * n

    def test_decisions_match_the_consulted_path(self):
        graph = self.fresh_models(20)
        plain = ListScheduler(64, LpaAllocator(MU_STAR["amdahl"])).run(graph)
        traced = ListScheduler(64, LpaAllocator(MU_STAR["amdahl"])).run(
            graph, tracer=CollectingTracer()
        )
        assert plain.schedule.entries == traced.schedule.entries
        assert list(plain.allocations.items()) == list(traced.allocations.items())

    @pytest.mark.parametrize("traced", [False, True])
    def test_infeasible_allocation_is_refused_on_both_paths(self, traced):
        class Oversized(LpaAllocator):
            def allocate(self, model, P, *, free=None):
                return Allocation(initial=P + 1, final=P + 1)

        graph = independent_tasks(3, comm)
        tracer = CollectingTracer() if traced else None
        with pytest.raises(SimulationError, match="infeasible allocation .* P_t=8"):
            ListScheduler(8, Oversized(0.3)).run(graph, tracer=tracer)

    @pytest.mark.parametrize("traced", [False, True])
    def test_equal_keys_reach_the_allocator_once(self, monkeypatch, traced):
        keyed_calls = []
        original = LpaAllocator.allocate_keyed

        def spy(self, model, key, P, free):
            keyed_calls.append(key)
            return original(self, model, key, P, free)

        monkeypatch.setattr(LpaAllocator, "allocate_keyed", spy)
        equal = [AmdahlModel(30.0, 1.0) for _ in range(3)]
        graph = TaskGraph()
        for i in range(9):
            graph.add_task(i, equal[i % 3])
        tracer = CollectingTracer() if traced else None
        result = OnlineScheduler.for_family("amdahl", 16).run(graph, tracer=tracer)
        assert keyed_calls == [equal[0].cache_key()]
        assert stat_counts(result.stats) == (8, 1, 0)
