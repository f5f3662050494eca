"""Metrics registry: instruments, merge semantics, ambient collection."""

import json

import pytest

from repro.obs.events import (
    AllocationDecided,
    CapacityChanged,
    FaultInjected,
    QueueSampled,
    RetryScheduled,
    TaskCompleted,
    TaskRevealed,
    TaskStarted,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsTracer,
    active_metrics,
    collect_metrics,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)

    def test_merge_adds(self):
        a, b = Counter("x"), Counter("x")
        a.inc(2)
        b.inc(3)
        a.merge(b)
        assert a.value == 5


class TestGauge:
    def test_last_set_wins(self):
        g = Gauge("x")
        assert g.value is None
        g.set(2.0)
        g.set(7.0)
        assert g.value == 7.0

    def test_merge_keeps_other_when_set(self):
        a, b = Gauge("x"), Gauge("x")
        a.set(1.0)
        a.merge(b)  # b unset: a keeps its value
        assert a.value == 1.0
        b.set(9.0)
        a.merge(b)
        assert a.value == 9.0


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        h = Histogram("x", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(55.5)
        assert (h.min, h.max) == (0.5, 50.0)
        assert h.mean == pytest.approx(18.5)
        assert h.bucket_counts == [1, 1, 1]  # <=1, <=10, +inf

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("x", buckets=(2.0, 1.0))

    def test_merge_requires_same_buckets(self):
        a = Histogram("x", buckets=(1.0,))
        b = Histogram("x", buckets=(2.0,))
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge(b)

    def test_merge_adds_distributions(self):
        a, b = Histogram("x"), Histogram("x")
        a.observe(1.0)
        b.observe(100.0)
        a.merge(b)
        assert a.count == 2
        assert (a.min, a.max) == (1.0, 100.0)


class TestRegistry:
    def test_create_on_first_use_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a")

    def test_value_scalar_view(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        assert registry.value("c") == 4
        assert registry.value("g") == 2.5
        assert registry.value("h") == 1  # histogram -> observation count
        assert registry.value("missing", default=-1) == -1

    def test_record_engine_stats_accumulates_and_derives_rate(self):
        registry = MetricsRegistry()
        stats = {
            "events": 10,
            "tasks_started": 5,
            "alloc_cache_hits": 3,
            "alloc_cache_misses": 1,
            "alloc_cache_bypasses": 0,
            "alloc_cache_hit_rate": 0.75,
        }
        registry.record_engine_stats(stats)
        registry.record_engine_stats(stats)
        assert registry.value("engine.events") == 20
        assert registry.value("engine.runs") == 2
        # The rate is re-derived over all runs, never averaged.
        assert registry.value("engine.alloc_cache_hit_rate") == pytest.approx(0.75)

    def test_merge_registry_and_dict_forms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(5.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        a.merge(b.as_dict())  # the cross-process path
        assert a.value("c") == 5
        assert a.value("g") == 5.0
        assert a.value("h") == 2

    def test_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(4.2)
        clone = MetricsRegistry.from_dict(json.loads(registry.to_json()))
        assert clone.as_dict() == registry.as_dict()

    def test_summary_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("tasks.started").inc(7)
        registry.gauge("sim.capacity").set(16)
        registry.histogram("queue.depth").observe(2)
        text = registry.summary()
        for name in ("tasks.started", "sim.capacity", "queue.depth"):
            assert name in text
        assert MetricsRegistry().summary() == "metrics: (none recorded)"


class TestAmbientCollection:
    def test_default_not_collecting(self):
        assert active_metrics() is None

    def test_collect_metrics_installs_and_restores(self):
        with collect_metrics() as registry:
            assert active_metrics() is registry
            with collect_metrics() as inner:
                assert active_metrics() is inner
            assert active_metrics() is registry
        assert active_metrics() is None

    def test_explicit_registry_is_used(self):
        mine = MetricsRegistry()
        with collect_metrics(mine) as got:
            assert got is mine


class TestMetricsTracer:
    def test_folds_the_event_stream(self):
        tracer = MetricsTracer()
        assert tracer.enabled is True
        for event in (
            TaskRevealed(0.0, "a"),
            AllocationDecided(0.0, "a", 4, 2, 8, True, "hit"),
            TaskStarted(0.0, "a", 2, 1.0),
            QueueSampled(0.0, 0, 6),
            FaultInjected(0.5, 1, "fail"),
            TaskCompleted(1.0, "a", 2, 0.0, 1, False),
            RetryScheduled(1.0, "a", 2, 0.5),
            FaultInjected(2.0, 1, "recover"),
            CapacityChanged(2.0, 8),
            TaskCompleted(3.0, "a", 2, 1.0, 2, True),
        ):
            tracer.emit(event)
        registry = tracer.registry
        assert registry.value("tasks.revealed") == 1
        assert registry.value("tasks.started") == 1
        assert registry.value("tasks.killed") == 1
        assert registry.value("tasks.completed") == 1
        assert registry.value("alloc.cache_hit") == 1
        assert registry.value("alloc.capped_by_mu") == 1
        assert registry.value("faults.failures") == 1
        assert registry.value("faults.recoveries") == 1
        assert registry.value("retries.scheduled") == 1
        assert registry.value("sim.capacity") == 8
        assert registry.value("sim.last_event_time") == 3.0
        tracer.close()  # no-op, registry stays readable
        assert registry.value("tasks.completed") == 1
