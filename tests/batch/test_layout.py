"""Unit tests of the graph/model -> dense-array compilation layer."""

import numpy as np
import pytest

from repro.batch.layout import (
    HUGE_DEMAND,
    BatchCompiler,
    compile_batch,
    compile_run,
    compile_structure,
)
from repro.core.allocator import LpaAllocator
from repro.exceptions import BatchUnsupportedError, SimulationError
from repro.graph import TaskGraph
from repro.graph.generators import fork_join, layered_random
from repro.sim.allocation import Allocation, Allocator
from repro.speedup import AmdahlModel, CommunicationModel, RooflineModel
from repro.speedup.random import RandomModelFactory


def diamond():
    g = TaskGraph()
    g.add_task("a", CommunicationModel(40.0, 0.5))
    g.add_task("b", CommunicationModel(40.0, 0.5))
    g.add_task("c", AmdahlModel(30.0, 2.0))
    g.add_task("d", CommunicationModel(40.0, 0.5), tag="sink")
    g.add_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    return g


class TestCompileStructure:
    def test_columns_follow_insertion_order(self):
        s = compile_structure(diamond())
        assert s.ids == ("a", "b", "c", "d")
        assert s.tags == ("", "", "", "sink")
        assert s.indeg.tolist() == [0, 1, 1, 2]

    def test_csr_successors(self):
        s = compile_structure(diamond())
        def succs(col):
            lo, hi = s.succ_indptr[col], s.succ_indptr[col + 1]
            return sorted(s.succ[lo:hi].tolist())
        assert succs(0) == [1, 2]
        assert succs(1) == [3]
        assert succs(2) == [3]
        assert succs(3) == []

    def test_cache_key_grouping(self):
        s = compile_structure(diamond())
        # a, b, d share CommunicationModel(40, 0.5); c stands alone.
        assert s.group[0] == s.group[1] == s.group[3]
        assert s.group[2] != s.group[0]
        assert len(s.group_rep) == 2

    def test_keyless_models_get_own_groups(self):
        class KeylessModel(AmdahlModel):
            def cache_key(self):
                return None

        g = TaskGraph()
        g.add_task(0, KeylessModel(10.0, 1.0))
        g.add_task(1, KeylessModel(10.0, 1.0))
        s = compile_structure(g)
        assert s.group[0] != s.group[1]

    def test_empty_graph(self):
        s = compile_structure(TaskGraph())
        assert s.n == 0
        assert s.succ.size == 0


class TestCompileRun:
    def test_group_allocation_matches_per_task(self):
        graph = layered_random(4, 5, RandomModelFactory(family="amdahl", seed=3), seed=3)
        allocator = LpaAllocator(0.271)
        run = compile_run(compile_structure(graph), 16, allocator, graph)
        fresh = LpaAllocator(0.271)
        tasks = graph.task_map()
        for col, tid in enumerate(run.structure.ids):
            alloc = fresh.allocate_cached(tasks[tid].model, 16, free=None)
            assert run.procs[col] == alloc.final
            assert run.initial[col] == alloc.initial
            assert run.duration[col] == tasks[tid].model.time(alloc.final)

    def test_lpa_groups_resolve_with_one_call_per_group(self):
        # Fifty tasks share one cache key: compilation consults the
        # allocator once, and a fresh allocator records that one miss.
        g = TaskGraph()
        model = CommunicationModel(25.0, 0.25)
        for i in range(50):
            g.add_task(i, model)
        s = compile_structure(g)
        run = compile_run(s, 8, LpaAllocator(0.324), g)
        assert len(s.group_rep) == 1
        assert run.allocator_calls == 1
        assert run.alloc_cache_misses == 1
        assert run.alloc_cache_hits == 0

    def test_overridden_lpa_resolves_one_call_per_group(self):
        # A subclass changing the decision math is consulted like any
        # allocator, once per group, and its decisions are the ones used.
        class ShiftedLpa(LpaAllocator):
            def initial_allocation(self, model, P):
                return max(1, super().initial_allocation(model, P) - 1)

        g = TaskGraph()
        model = CommunicationModel(25.0, 0.25)
        for i in range(50):
            g.add_task(i, model)
        allocator = ShiftedLpa(0.324)
        run = compile_run(compile_structure(g), 8, allocator, g)
        assert run.allocator_calls == 1
        assert run.alloc_cache_misses == 1
        expected = ShiftedLpa(0.324).allocate(model, 8)
        assert run.procs.tolist() == [expected.final] * 50
        assert run.initial.tolist() == [expected.initial] * 50

    def test_uses_free_allocator_declined(self):
        from repro.baselines.online import AvailableProcessorsAllocator

        g = diamond()
        with pytest.raises(BatchUnsupportedError) as err:
            compile_run(compile_structure(g), 8, AvailableProcessorsAllocator(), g)
        assert err.value.feature == "allocator-uses-free"

    def test_infeasible_allocation_uses_reference_message(self):
        class BadAllocator(Allocator):
            def allocate(self, model, P, *, free=None):
                return Allocation(initial=P + 1, final=P + 1)

        g = diamond()
        with pytest.raises(SimulationError, match="infeasible allocation"):
            compile_run(compile_structure(g), 4, BadAllocator(), g)

    def test_dtypes_are_pinned(self):
        g = diamond()
        run = compile_run(compile_structure(g), 8, LpaAllocator(0.324), g)
        assert run.procs.dtype == np.int64
        assert run.initial.dtype == np.int64
        assert run.duration.dtype == np.float64


class TestBatchCompiler:
    def test_structure_shared_per_graph_object(self):
        g = diamond()
        compiler = BatchCompiler()
        assert compiler.structure(g) is compiler.structure(g)

    def test_distinct_graphs_not_shared(self):
        compiler = BatchCompiler()
        assert compiler.structure(diamond()) is not compiler.structure(diamond())

    def test_mutated_graph_recompiled(self):
        g = diamond()
        compiler = BatchCompiler()
        before = compiler.structure(g)
        g.add_task("e", RooflineModel(5.0, max_parallelism=2))
        g.add_edge("d", "e")
        after = compiler.structure(g)
        assert after is not before
        assert after.n == 5

    def test_edge_only_mutation_recompiled(self):
        g = TaskGraph()
        g.add_task(0, AmdahlModel(5.0, 1.0))
        g.add_task(1, AmdahlModel(5.0, 1.0))
        compiler = BatchCompiler()
        before = compiler.structure(g)
        g.add_edge(0, 1)
        after = compiler.structure(g)
        assert after is not before
        assert after.indeg.tolist() == [0, 1]


class TestCompileBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError, match="empty batch"):
            compile_batch([], LpaAllocator(0.324))

    def test_padding_of_mixed_sizes(self):
        small = diamond()
        big = fork_join(6, RandomModelFactory(family="communication", seed=1), stages=2)
        cb = compile_batch([(small, 4), (big, 16)], LpaAllocator(0.324))
        assert cb.B == 2
        assert cb.N == len(big)
        assert cb.n_tasks.tolist() == [4, len(big)]
        assert cb.P.tolist() == [4, 16]
        # Padding columns: never ready, never fit.
        n0 = 4
        assert (cb.demand[0, n0:] == HUGE_DEMAND).all()
        assert (cb.indeg[0, n0:] == 1).all()
        assert (cb.initial[0, n0:] == 0).all()

    def test_flat_csr_uses_global_indices(self):
        g = diamond()
        cb = compile_batch([(g, 4), (g, 8)], LpaAllocator(0.324))
        N = cb.N
        # Run 1's task "a" (global N+0) points at global N+1 and N+2.
        lo, hi = cb.succ_indptr[N], cb.succ_indptr[N + 1]
        assert sorted(cb.succ[lo:hi].tolist()) == [N + 1, N + 2]

    def test_shared_graph_compiles_structure_once(self, monkeypatch):
        import repro.batch.layout as layout

        calls = []
        original = layout.compile_structure
        monkeypatch.setattr(
            layout,
            "compile_structure",
            lambda graph: calls.append(1) or original(graph),
        )
        g = diamond()
        compile_batch([(g, 8)] * 10, LpaAllocator(0.324), layout.BatchCompiler())
        assert len(calls) == 1
