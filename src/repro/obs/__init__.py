"""Observability: simulation tracing and unified metrics.

The layer that answers *why the simulator did what it did* without
perturbing what it does:

* :mod:`repro.obs.events` — the frozen, typed simulation event
  vocabulary and the :class:`~repro.obs.events.Tracer` protocol (default
  :class:`~repro.obs.events.NullTracer`: zero-cost, byte-identical runs).
* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry` that subsumes the engine's
  ``EngineStats``, merges across campaign worker processes, and lands in
  run manifests and BENCH files.
* :mod:`repro.obs.export` — JSONL event logs, live Chrome
  trace_event/Perfetto export, and text summaries.

Layering: ``repro.obs`` sits *below* the simulator (it imports only
:mod:`repro.types`), so the engine, allocators, and runtime can all emit
into it without cycles.  See ``docs/observability.md``.
"""

from repro.obs.events import (
    EVENT_TYPES,
    AllocationDecided,
    CapacityChanged,
    CollectingTracer,
    DeadlineChecked,
    FaultInjected,
    JournalRecordWritten,
    MultiTracer,
    NullTracer,
    QueueSampled,
    RetryScheduled,
    ServiceRequestHandled,
    SimEvent,
    TaskCompleted,
    TaskRevealed,
    TaskStarted,
    Tracer,
    active_tracer,
    event_from_dict,
    event_to_dict,
    use_tracer,
    validate_event_dict,
)
from repro.obs.export import (
    ChromeTraceSink,
    JsonlTraceSink,
    TextSummarySink,
    render_prometheus,
    trace_digest,
)
from repro.obs.layout import RowLayout
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsTracer,
    active_metrics,
    collect_metrics,
)

__all__ = [
    # events
    "SimEvent",
    "TaskRevealed",
    "AllocationDecided",
    "TaskStarted",
    "TaskCompleted",
    "FaultInjected",
    "RetryScheduled",
    "CapacityChanged",
    "QueueSampled",
    "ServiceRequestHandled",
    "JournalRecordWritten",
    "DeadlineChecked",
    "EVENT_TYPES",
    "Tracer",
    "NullTracer",
    "CollectingTracer",
    "MultiTracer",
    "event_to_dict",
    "event_from_dict",
    "validate_event_dict",
    "use_tracer",
    "active_tracer",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsTracer",
    "collect_metrics",
    "active_metrics",
    # export
    "JsonlTraceSink",
    "ChromeTraceSink",
    "TextSummarySink",
    "trace_digest",
    "render_prometheus",
    "RowLayout",
]
