"""``run_batch`` on one run: typed errors, engine diagnostics, counters."""

import pytest

from repro.batch import BatchEngine, compile_batch, compile_structure, run_batch
from repro.core.allocator import LpaAllocator
from repro.exceptions import BatchUnsupportedError, SimulationError
from repro.graph.generators import fork_join, layered_random
from repro.sim import ListScheduler, StaticGraphSource
from repro.speedup.random import RandomModelFactory


def small_graph(seed=5):
    return layered_random(
        3, 4, RandomModelFactory(family="communication", seed=seed), seed=seed
    )


def simulate(graph, P, allocator):
    (result,) = run_batch([(graph, P)], allocator).results
    return result


class TestDeclineDetails:
    def test_unsupported_error_is_simulation_error(self):
        assert issubclass(BatchUnsupportedError, SimulationError)
        err = BatchUnsupportedError("nope", feature="x")
        assert err.feature == "x"


class TestEngineDiagnostics:
    def test_deadlock_message_matches_reference_format(self):
        graph = fork_join(3, RandomModelFactory(family="amdahl", seed=1), stages=1)
        compiled = compile_batch([(graph, 4)], LpaAllocator(0.324))
        # Tamper a demand beyond the platform: the entry can never start.
        compiled.demand[0, 0] = 9
        with pytest.raises(SimulationError, match=r"deadlock: tasks \[.*\] can never start"):
            BatchEngine(compiled).run()

    def test_run_is_single_shot(self):
        graph = small_graph()
        compiled = compile_batch([(graph, 8)], LpaAllocator(0.324))
        engine = BatchEngine(compiled).run()
        with pytest.raises(SimulationError, match="only be called once"):
            engine.run()


class TestDropInSimulate:
    def test_simulate_matches_reference(self):
        graph = small_graph(seed=12)
        reference = ListScheduler(16, LpaAllocator(0.324)).run(
            StaticGraphSource(graph)
        )
        batched = simulate(graph, 16, LpaAllocator(0.324))
        assert list(reference.schedule) == list(batched.schedule)
        assert reference.makespan == batched.makespan

    def test_stats_report_engine_counters(self):
        graph = small_graph(seed=12)
        batched = simulate(graph, 16, LpaAllocator(0.324))
        assert batched.stats is not None
        assert batched.stats.tasks_started == len(graph)
        assert batched.stats.events > 0
        # One allocate_cached call per cache-key group; on a fresh
        # allocator each of them is a miss.
        groups = len(compile_structure(graph).group_rep)
        assert batched.stats.allocator_calls == groups
        assert batched.stats.alloc_cache_misses == groups

    def test_metrics_registry_sees_batch_counters(self):
        from repro.obs.metrics import MetricsRegistry, collect_metrics

        graph = small_graph(seed=12)
        registry = MetricsRegistry()
        with collect_metrics(registry):
            simulate(graph, 16, LpaAllocator(0.324))
        payload = registry.as_dict()
        assert payload["batch.runs"]["value"] == 1
        assert payload["batch.tasks"]["value"] == len(graph)
        assert "batch.compactions" in payload
        assert "batch.block_skips" in payload
