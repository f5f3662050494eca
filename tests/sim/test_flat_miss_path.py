"""The engine's Algorithm-2 miss path on fresh-model graphs.

A fresh model per task makes every reveal a miss.  At full capacity an
untraced miss goes straight through ``Allocator.allocate_keyed`` to
``LpaAllocator.allocate``, which decides an Equation (1) model through
``_initial_eq1`` and fills the ``Allocation`` without its validating
constructor; the engine checks ``1 <= final <= P`` and looks the duration
up itself.  These tests pin that path against the traced one and the
generic one: same decisions, same counters, one ``allocate`` per miss,
and the same refusal of an infeasible allocation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.allocator import LpaAllocator
from repro.core.constants import MU_STAR
from repro.exceptions import SimulationError
from repro.graph.generators import layered_random
from repro.obs.events import AllocationDecided, CollectingTracer
from repro.sim.allocation import Allocation
from repro.sim.engine import ListScheduler
from repro.speedup import AmdahlModel, CommunicationModel, GeneralModel

PLATFORMS = (16, 128, 4096)
MODES = ("plain", "checked", "traced")


def fresh_graph(family, model_cls=None):
    """A 30-task layered graph with one fresh model per task.

    ``amdahl`` models have ``c = 0`` (closed-form boundaries), ``general``
    ones ``c > 0`` (both bisections); ``model_cls`` swaps the class.
    """
    rng = np.random.default_rng(11)
    models = []
    for _ in range(30):
        w = float(rng.uniform(50.0, 5000.0))
        d = float(rng.uniform(0.1, 5.0))
        if family == "amdahl":
            models.append((model_cls or AmdahlModel)(w, d))
        else:
            c = float(rng.uniform(1e-3, 0.5))
            models.append((model_cls or GeneralModel)(w, d, c))
    it = iter(models)
    return layered_random(5, 6, it.__next__, edge_probability=0.3,
                          seed=np.random.default_rng(3))


def counters(allocator, run):
    """``run()``'s result and the (hits, misses, bypasses) it added."""
    before = allocator.cache_info()
    result = run()
    after = allocator.cache_info()
    return result, (after.hits - before.hits, after.misses - before.misses,
                    after.bypasses - before.bypasses)


def stat_counts(stats):
    return stats.alloc_cache_hits, stats.alloc_cache_misses, stats.alloc_cache_bypasses


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``LpaAllocator.allocate`` and ``LpaAllocator._initial_eq1`` calls."""
    counts = {"allocate": 0, "eq1": 0}
    allocate, initial_eq1 = LpaAllocator.allocate, LpaAllocator._initial_eq1

    def counting_allocate(self, *args, **kwargs):
        counts["allocate"] += 1
        return allocate(self, *args, **kwargs)

    def counting_eq1(self, *args):
        counts["eq1"] += 1
        return initial_eq1(self, *args)

    monkeypatch.setattr(LpaAllocator, "allocate", counting_allocate)
    monkeypatch.setattr(LpaAllocator, "_initial_eq1", counting_eq1)
    return counts


class _Generic(LpaAllocator):
    """Algorithm 2 through the generic model-probing path (the oracle)."""

    def _initial_monotonic(self, model, p_max, threshold):
        return super()._initial_monotonic(model, p_max, threshold)


def run(allocator, graph, P, mode):
    tracer = CollectingTracer() if mode == "traced" else None
    result = ListScheduler(P, allocator).run(
        graph, check_invariants=mode == "checked", tracer=tracer
    )
    return result, tracer


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("P", PLATFORMS)
@pytest.mark.parametrize("family", ["amdahl", "general"])
class TestFreshModels:
    def test_counters_and_one_allocate_per_miss(self, calls, family, P, mode):
        graph = fresh_graph(family)
        n = len(graph)
        allocator = LpaAllocator(MU_STAR[family])
        for rerun in (False, True):  # the rerun hits the allocator's LRU
            calls["allocate"] = calls["eq1"] = 0
            (result, tracer), delta = counters(allocator, lambda: run(allocator, graph, P, mode))
            assert delta == stat_counts(result.stats) == ((n, 0, 0) if rerun else (0, n, 0))
            # A traced decision's explain() re-derives Step 1 once more.
            explained = n if mode == "traced" else 0
            assert calls == {"allocate": 0 if rerun else n,
                             "eq1": (0 if rerun else n) + explained}
            info = allocator.cache_info()
            assert (info.hits, info.misses, info.bypasses, info.currsize) == (
                n if rerun else 0, n, 0, n
            )
            if tracer is not None:
                decided = tracer.of_type(AllocationDecided)
                assert [e.cache for e in decided] == ["hit" if rerun else "miss"] * n
                assert {e.task_id: (e.initial, e.final) for e in decided} == {
                    task: (a.initial, a.final) for task, a in result.allocations.items()
                }

    def test_decisions_match_the_generic_path(self, family, P, mode):
        graph = fresh_graph(family)
        fast, _ = run(LpaAllocator(MU_STAR[family]), graph, P, mode)
        generic, _ = run(_Generic(MU_STAR[family]), graph, P, "plain")
        assert list(fast.allocations.items()) == list(generic.allocations.items())
        assert fast.schedule.entries == generic.schedule.entries
        assert stat_counts(fast.stats) == stat_counts(generic.stats)

    def test_fast_path_allocations_are_plain_allocations(self, family, P, mode):
        result, _ = run(LpaAllocator(MU_STAR[family]), fresh_graph(family), P, mode)
        for alloc in result.allocations.values():
            checked = Allocation(initial=alloc.initial, final=alloc.final)
            assert type(alloc) is Allocation
            assert alloc == checked and hash(alloc) == hash(checked)
            assert repr(alloc) == repr(checked)
            assert pickle.loads(pickle.dumps(alloc)) == checked
            assert pickle.dumps(alloc) == pickle.dumps(checked)
            assert vars(alloc) == vars(checked)


class _OwnAllocate(LpaAllocator):
    def allocate(self, model, P, *, free=None):
        return super().allocate(model, P, free=free)


class _OwnInitial(LpaAllocator):
    def initial_allocation(self, model, P):
        return super().initial_allocation(model, P)


class _SameTime(GeneralModel):
    def time(self, p):
        return super().time(p)


def _unhinted(w, d, c=0.0):
    model = GeneralModel(w, d, c)
    model.monotonic_hint = False
    return model


class TestGenericPathStays:
    """What ``_initial_eq1`` cannot stand in for still probes the model."""

    @pytest.mark.parametrize("allocator_cls", [_OwnAllocate, _OwnInitial, _Generic])
    @pytest.mark.parametrize("family", ["amdahl", "general"])
    def test_overriding_allocators(self, calls, allocator_cls, family):
        graph = fresh_graph(family)
        allocator = allocator_cls(MU_STAR[family])
        assert not allocator_cls._own_decisions
        (result, _), delta = counters(allocator, lambda: run(allocator, graph, 128, "plain"))
        assert calls["eq1"] == 0
        assert calls["allocate"] == len(graph) == delta[1]
        reference, _ = run(LpaAllocator(MU_STAR[family]), graph, 128, "plain")
        assert list(result.allocations.items()) == list(reference.allocations.items())

    @pytest.mark.parametrize("model_cls", [_unhinted, _SameTime])
    @pytest.mark.parametrize("family", ["amdahl", "general"])
    def test_ineligible_models(self, calls, model_cls, family):
        graph = fresh_graph(family, model_cls)
        allocator = LpaAllocator(MU_STAR[family])
        (result, _), delta = counters(allocator, lambda: run(allocator, graph, 128, "plain"))
        assert calls["eq1"] == 0
        assert calls["allocate"] == len(graph)
        assert delta == stat_counts(result.stats) == (0, len(graph), 0)
        if model_cls is _SameTime:
            reference, _ = run(LpaAllocator(MU_STAR[family]), fresh_graph(family), 128, "plain")
            assert list(result.allocations.items()) == list(reference.allocations.items())


class _Oversized(LpaAllocator):
    def allocate(self, model, P, *, free=None):
        return Allocation(initial=P + 1, final=P + 1)


@pytest.mark.parametrize("P", PLATFORMS)
@pytest.mark.parametrize("mode", MODES)
def test_infeasible_allocation_is_refused(P, mode):
    graph = fresh_graph("general")
    with pytest.raises(SimulationError, match=f"infeasible allocation .* P_t={P}$"):
        run(_Oversized(0.3), graph, P, mode)


def test_an_equal_key_reuses_the_first_group_of_its_run():
    # Two model objects per parameterization: the second object's group
    # reads the first's entry, and so does a rerun's first group once the
    # LRU holds the key.
    twins = [CommunicationModel(100.0 + i, 0.25) for i in range(4)]
    twins += [CommunicationModel(100.0 + i, 0.25) for i in range(4)]
    it = iter(twins)
    graph = layered_random(2, 4, it.__next__, edge_probability=0.5,
                           seed=np.random.default_rng(2))
    allocator = LpaAllocator(MU_STAR["communication"])
    first, delta = counters(allocator, lambda: run(allocator, graph, 64, "plain")[0])
    assert delta == stat_counts(first.stats) == (4, 4, 0)
    again, delta = counters(allocator, lambda: run(allocator, graph, 64, "plain")[0])
    assert delta == (8, 0, 0)
    assert list(again.allocations.items()) == list(first.allocations.items())
