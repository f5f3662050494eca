"""Unified metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` holds every quantitative observation of a
run — the engine's :class:`~repro.sim.engine.EngineStats` counters
(recorded under ``engine.*``), event-derived distributions (via
:class:`MetricsTracer`), and anything an experiment wants to count.
Registries are plain data: they :meth:`merge`, round-trip through
:meth:`as_dict`/:meth:`from_dict` (how campaign worker processes report
metrics back to the parent), and render a text :meth:`summary`.

The ambient-collection machinery (:func:`collect_metrics` /
:func:`active_metrics`) replaces the engine's former module-level
``_PROFILE_SINK`` global: the active registry lives in a ``ContextVar``,
so nested collections restore their outer scope and worker processes
each see an independent default — the properties the old global only had
by convention, now by construction (and RL005-clean).

Determinism discipline: nothing here reads a clock or RNG.  Metrics are
derived purely from what producers record, so collecting metrics can
never perturb a schedule (the golden-digest tests hold with and without
collection).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsTracer",
    "collect_metrics",
    "active_metrics",
]

#: Default histogram bucket boundaries (powers of two; +inf is implicit).
_DEFAULT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def load(self, payload: Mapping[str, Any]) -> None:
        self.value += payload.get("value", 0)


class Gauge:
    """A point-in-time value (last write wins; merges keep the last set)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        if other.value is not None:
            self.value = other.value

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def load(self, payload: Mapping[str, Any]) -> None:
        value = payload.get("value")
        if value is not None:
            self.value = value


class Histogram:
    """A cumulative-bucket distribution with count/sum/min/max.

    ``buckets`` are upper bounds of cumulative buckets (a ``+inf`` bucket
    is implicit), the Prometheus convention: ``bucket_counts[i]`` is the
    number of observations ``<= buckets[i]``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = _DEFAULT_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets: tuple[float, ...] = tuple(buckets)
        self.bucket_counts: list[int] = [0] * (len(buckets) + 1)
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket mismatch "
                f"{other.buckets} vs {self.buckets}"
            )
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }

    def load(self, payload: Mapping[str, Any]) -> None:
        other = Histogram(self.name, buckets=tuple(payload.get("buckets", self.buckets)))
        other.bucket_counts = list(payload.get("bucket_counts", other.bucket_counts))
        other.count = int(payload.get("count", 0))
        other.total = float(payload.get("sum", 0.0))
        mn, mx = payload.get("min"), payload.get("max")
        other.min = math.inf if mn is None else float(mn)
        other.max = -math.inf if mx is None else float(mx)
        self.merge(other)


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Metric names are dotted (``engine.tasks_started``,
    ``faults.injected``); accessors create on first use and return the
    existing instrument afterwards (re-registering under a different kind
    raises).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- registration --------------------------------------------------
    def _get(self, name: str, factory: Callable[[], Metric], kind: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get(name, lambda: Counter(name, help), "counter")
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get(name, lambda: Gauge(name, help), "gauge")
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = _DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._get(name, lambda: Histogram(name, help, buckets), "histogram")
        assert isinstance(metric, Histogram)
        return metric

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0) -> float:
        """Scalar view of a metric: counter/gauge value, histogram count."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.count
        if metric.value is None:
            return default
        return metric.value

    # -- engine-stats ingestion ----------------------------------------
    def record_engine_stats(self, stats: Mapping[str, float]) -> None:
        """Fold one run's :meth:`EngineStats.as_dict` into ``engine.*`` metrics.

        Pure counters accumulate; the derived ``alloc_cache_hit_rate`` is
        re-derived from the accumulated counters rather than averaged, so
        the registry's rate is the rate *over every recorded run*.
        """
        for key, value in stats.items():
            if key == "alloc_cache_hit_rate":
                continue
            self.counter(f"engine.{key}").inc(value)
        hits = self.value("engine.alloc_cache_hits")
        total = (
            hits
            + self.value("engine.alloc_cache_misses")
            + self.value("engine.alloc_cache_bypasses")
        )
        self.gauge("engine.alloc_cache_hit_rate").set(
            0.0 if total == 0 else hits / total
        )
        self.counter("engine.runs").inc()

    # -- aggregation / serialization -----------------------------------
    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold ``other`` (a registry or its :meth:`as_dict` form) into this one.

        This is how :class:`~repro.runtime.executor.CampaignExecutor`
        aggregates per-worker metrics: workers ship ``as_dict()`` payloads
        and the parent merges them.
        """
        if isinstance(other, MetricsRegistry):
            other = other.as_dict()
        for name, payload in other.items():
            kind = payload.get("kind")
            if kind == "counter":
                self.counter(name).load(payload)
            elif kind == "gauge":
                self.gauge(name).load(payload)
            elif kind == "histogram":
                self.histogram(
                    name, buckets=tuple(payload.get("buckets", _DEFAULT_BUCKETS))
                ).load(payload)
            else:
                raise ValueError(f"metric {name!r} has unknown kind {kind!r}")

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """JSON-safe snapshot, sorted by metric name."""
        return {name: self._metrics[name].as_dict() for name in sorted(self._metrics)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(dict(payload))
        return registry

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """Human-readable listing (the CLI's ``--metrics`` output)."""
        if not self._metrics:
            return "metrics: (none recorded)"
        lines = ["metrics:"]
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                if metric.count == 0:
                    lines.append(f"  {name}: histogram (empty)")
                else:
                    lines.append(
                        f"  {name}: n={metric.count} mean={metric.mean:.4g} "
                        f"min={metric.min:.4g} max={metric.max:.4g}"
                    )
            elif isinstance(metric, Gauge):
                value = "unset" if metric.value is None else f"{metric.value:.4g}"
                lines.append(f"  {name}: {value} (gauge)")
            else:
                value = metric.value
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"  {name}: {shown}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Ambient collection
# ----------------------------------------------------------------------
#: Registry collecting the current dynamic extent's run metrics (None =
#: not collecting).  ContextVar semantics give nested collections and
#: per-process isolation for free.
_ACTIVE_METRICS: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_active_metrics", default=None
)


def active_metrics() -> MetricsRegistry | None:
    """The registry installed by the innermost :func:`collect_metrics`."""
    return _ACTIVE_METRICS.get()


@contextmanager
def collect_metrics(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Collect every run's metrics inside the ``with`` block.

    Yields the collecting registry (a fresh one unless given).  Producers
    (the engine, the campaign executor) look the registry up via
    :func:`active_metrics` and record into it as runs complete — including
    runs started deep inside experiment code that never surfaces its
    :class:`~repro.sim.engine.SimulationResult`.  Blocks nest: only the
    innermost registry collects, and the outer one is restored on exit.
    """
    if registry is None:
        registry = MetricsRegistry()
    token = _ACTIVE_METRICS.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_METRICS.reset(token)


# ----------------------------------------------------------------------
# Event stream -> metrics
# ----------------------------------------------------------------------
class MetricsTracer:
    """A tracer that folds the event stream into a :class:`MetricsRegistry`.

    Counters: reveals, starts, completions, kills, faults, recoveries,
    retries, allocation cache hits/misses/bypasses, µP-cap activations.
    Histograms: attempt durations, allocation sizes, queue depth samples.
    Gauges: live capacity, last event time (≈ makespan for complete runs).
    """

    enabled: bool = True

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def emit(self, event: Any) -> None:
        from repro.obs import events as ev

        registry = self.registry
        if isinstance(event, ev.TaskStarted):
            registry.counter("tasks.started").inc()
            registry.histogram("tasks.allocation_procs").observe(event.procs)
        elif isinstance(event, ev.TaskCompleted):
            if event.completed:
                registry.counter("tasks.completed").inc()
            else:
                registry.counter("tasks.killed").inc()
            registry.histogram("tasks.attempt_duration").observe(event.time - event.start)
            registry.gauge("sim.last_event_time").set(event.time)
        elif isinstance(event, ev.TaskRevealed):
            registry.counter("tasks.revealed").inc()
        elif isinstance(event, ev.AllocationDecided):
            registry.counter(f"alloc.cache_{event.cache}").inc()
            if event.capped:
                registry.counter("alloc.capped_by_mu").inc()
        elif isinstance(event, ev.QueueSampled):
            registry.histogram("queue.depth").observe(event.waiting)
        elif isinstance(event, ev.FaultInjected):
            kind = "failures" if event.kind == "fail" else "recoveries"
            registry.counter(f"faults.{kind}").inc()
        elif isinstance(event, ev.RetryScheduled):
            registry.counter("retries.scheduled").inc()
            registry.histogram("retries.backoff_delay").observe(event.delay)
        elif isinstance(event, ev.CapacityChanged):
            registry.gauge("sim.capacity").set(event.capacity)

    def close(self) -> None:
        """Nothing to flush; the registry stays available."""
