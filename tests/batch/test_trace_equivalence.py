"""``run_batch`` surfaces its kernel counters through the metrics registry.

The scenarios are the golden trace scenarios of
``tests/obs/test_golden_traces.py``, which pin the reference engine.
"""

from repro.batch import run_batch
from repro.core.allocator import LpaAllocator
from repro.obs.metrics import collect_metrics
from tests.obs.test_golden_traces import MU, SCENARIOS


class TestBackendPath:
    def test_kernel_counters_surface(self):
        items = SCENARIOS["shared_model_groups"]()
        with collect_metrics() as registry:
            run_batch(items, LpaAllocator(MU))
        assert registry.value("batch.runs") == len(items)
        # Sixteen tasks share two Equation (1) models: one allocate_cached
        # call per cache-key group, each a miss on the fresh allocator.
        assert registry.value("engine.allocator_calls") == 2
        assert registry.value("engine.alloc_cache_misses") == 2
        assert "batch.compactions" in registry
        assert "batch.block_skips" in registry
