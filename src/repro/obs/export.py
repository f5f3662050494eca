"""Event-stream sinks: JSONL logs, Chrome traces, and text summaries.

Three :class:`~repro.obs.events.Tracer` implementations that turn the
engine's live event stream into artifacts:

* :class:`JsonlTraceSink` — one JSON object per line, schema-checked by
  :func:`repro.obs.events.validate_event_dict` (the CI traced-smoke job
  replays the file through the validator).
* :class:`ChromeTraceSink` — a Chrome ``trace_event`` / Perfetto document
  built *as the simulation runs*: task bars on greedy processor rows
  (via the :class:`~repro.obs.layout.RowLayout` shared with
  :mod:`repro.viz.trace`), instant markers for faults and retries, and
  counter tracks for live capacity and queue depth.
* :class:`TextSummarySink` — an aggregate one-screen run summary.

Sinks buffer in memory and write on :meth:`close`; a sink may observe
many runs before closing (e.g. an experiment that simulates dozens of
schedules lands them all in one trace, one "process" per run when
producers thread run names through).

Two stream-independent helpers live here as well:
:func:`trace_digest` (the canonical SHA-256 fingerprint of an event
stream — how the golden trace scenarios are pinned) and
:func:`render_prometheus` (a Prometheus text-format exposition of one or
more :class:`~repro.obs.metrics.MetricsRegistry` instances, the payload
behind the service's ``stats`` request).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import IO, Any, Iterable, Mapping

from repro.obs.events import (
    AllocationDecided,
    CapacityChanged,
    FaultInjected,
    QueueSampled,
    RetryScheduled,
    SimEvent,
    TaskCompleted,
    TaskStarted,
    event_to_dict,
)
from repro.obs.layout import RowLayout
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "JsonlTraceSink",
    "ChromeTraceSink",
    "TextSummarySink",
    "trace_digest",
    "render_prometheus",
]

#: Simulated time unit -> trace microseconds (shared with repro.viz.trace).
TRACE_TIME_SCALE = 1_000_000.0


class JsonlTraceSink:
    """Append every event to ``path`` as one JSON object per line."""

    enabled: bool = True

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fp: IO[str] | None = self.path.open("w", encoding="utf-8")
        self.events_written = 0

    def emit(self, event: SimEvent) -> None:
        if self._fp is None:
            raise ValueError(f"JSONL sink {self.path} is closed")
        self._fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        self._fp.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None


class ChromeTraceSink:
    """Build a Chrome ``trace_event`` document live from the event stream.

    Layout mirrors :func:`repro.viz.trace.schedule_to_trace_events`: one
    "thread" row per processor slot, each task bar spanning ``procs``
    rows, rows assigned by the shared greedy :class:`RowLayout`.  On top
    of the after-the-fact exporter it adds what only the live stream
    knows: killed attempts (their own category, ending at the kill
    instant), fault/recovery and retry instant markers, and counter
    tracks for the live capacity :math:`P_t` and the waiting-queue depth.
    """

    enabled: bool = True

    def __init__(
        self, path: Path | str, *, P: int | None = None, name: str = "simulation"
    ) -> None:
        self.path = Path(path)
        self.name = name
        #: With a known platform size the layout is fixed at ``P`` rows
        #: (matching the after-the-fact exporter); without one it grows to
        #: the observed concurrency (the CLI cannot know ``P`` up front).
        self._layout = RowLayout(P) if P is not None else RowLayout(1, grow=True)
        self._events: list[dict[str, Any]] = []
        #: (task_id, attempt) -> (start, procs, rows) of in-flight attempts.
        self._running: dict[tuple[str, int], tuple[float, int, tuple[int, ...]]] = {}
        self._closed = False

    # -- event ingestion -----------------------------------------------
    def emit(self, event: SimEvent) -> None:
        if isinstance(event, TaskStarted):
            rows = self._layout.place(event.time, event.expected_end, event.procs)
            self._running[(str(event.task_id), event.attempt)] = (
                event.time,
                event.procs,
                rows,
            )
        elif isinstance(event, TaskCompleted):
            self._finish_attempt(event)
        elif isinstance(event, FaultInjected):
            self._instant(
                event.time,
                f"{event.kind}:proc{event.processor}",
                "fault" if event.kind == "fail" else "recovery",
            )
        elif isinstance(event, RetryScheduled):
            self._instant(
                event.time,
                f"retry:{event.task_id}#{event.attempt}",
                "retry",
            )
        elif isinstance(event, CapacityChanged):
            self._counter(event.time, "capacity", {"P_t": event.capacity})
        elif isinstance(event, QueueSampled):
            self._counter(
                event.time, "queue", {"waiting": event.waiting, "free": event.free}
            )

    def _finish_attempt(self, event: TaskCompleted) -> None:
        key = (str(event.task_id), event.attempt)
        record = self._running.pop(key, None)
        if record is None:
            # Completion without a matching start (partial stream): draw
            # the bar from the event's own start stamp on fresh rows.
            record = (
                event.start,
                event.procs,
                self._layout.place(event.start, event.time, event.procs),
            )
        start, procs, rows = record
        if not event.completed:
            # The attempt died early: its rows are free from the kill on.
            self._layout.release(rows, event.time)
        duration = max(event.time - start, 1e-9 / TRACE_TIME_SCALE)
        for row in rows:
            self._events.append(
                {
                    "name": str(event.task_id),
                    "cat": "task" if event.completed else "killed-attempt",
                    "ph": "X",
                    "ts": start * TRACE_TIME_SCALE,
                    "dur": duration * TRACE_TIME_SCALE,
                    "pid": self.name,
                    "tid": row,
                    "args": {
                        "procs": procs,
                        "attempt": event.attempt,
                        "completed": event.completed,
                        "start": start,
                        "end": event.time,
                    },
                }
            )

    def _instant(self, time: float, name: str, category: str) -> None:
        self._events.append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": "p",  # process-scoped marker line
                "ts": time * TRACE_TIME_SCALE,
                "pid": self.name,
                "tid": 0,
            }
        )

    def _counter(self, time: float, name: str, values: dict[str, float]) -> None:
        self._events.append(
            {
                "name": name,
                "ph": "C",
                "ts": time * TRACE_TIME_SCALE,
                "pid": self.name,
                "args": values,
            }
        )

    # -- output --------------------------------------------------------
    def trace_events(self) -> list[dict[str, Any]]:
        """The trace-event dicts accumulated so far (bars need completions)."""
        return list(self._events)

    def close(self) -> None:
        """Write the accumulated document as Chrome trace JSON."""
        if self._closed:
            return
        self._closed = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "traceEvents": self._events,
            "displayTimeUnit": "ms",
            "otherData": {"exporter": "repro.obs.export.ChromeTraceSink"},
        }
        self.path.write_text(json.dumps(document) + "\n")


def trace_digest(events: Iterable[SimEvent]) -> str:
    """Canonical SHA-256 fingerprint of an event stream.

    Hashes the same serialization :class:`JsonlTraceSink` writes (one
    sorted-key JSON object per line), so a digest of collected events, of
    a replayed JSONL file, and of a live stream all agree.  Two runs
    whose streams share a digest emitted the same events, same payloads,
    same order.
    """
    h = hashlib.sha256()
    for event in events:
        h.update(json.dumps(event_to_dict(event), sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _prom_name(name: str) -> str:
    """Metric name -> Prometheus-legal name (dots/dashes become ``_``)."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prom_name(k)}="{_prom_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _prom_float(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    registries: "MetricsRegistry | Mapping[str, MetricsRegistry]",
    *,
    label: str = "tenant",
) -> str:
    """Render registries in the Prometheus text exposition format.

    A single registry renders unlabeled samples; a mapping renders one
    labeled sample series per key (``label`` names the label, ``tenant``
    by default — how the service exposes per-tenant registries side by
    side).  ``# HELP``/``# TYPE`` headers appear once per metric;
    histograms render cumulative ``_bucket`` series plus ``_sum`` and
    ``_count``, the standard convention.
    """
    if isinstance(registries, MetricsRegistry):
        series: list[tuple[dict[str, str], MetricsRegistry]] = [({}, registries)]
    else:
        series = [({label: key}, reg) for key, reg in sorted(registries.items())]

    names: list[str] = []
    for _, reg in series:
        for name in reg.names():
            if name not in names:
                names.append(name)
    names.sort()

    lines: list[str] = []
    for name in names:
        pname = _prom_name(name)
        headed = False
        for labels, reg in series:
            metric = reg.get(name)
            if metric is None:
                continue
            if not headed:
                headed = True
                if metric.help:
                    lines.append(f"# HELP {pname} {metric.help}")
                kind = "counter" if isinstance(metric, Counter) else (
                    "gauge" if isinstance(metric, Gauge) else "histogram"
                )
                lines.append(f"# TYPE {pname} {kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.buckets, metric.bucket_counts, strict=False):
                    cumulative += count
                    lbl = _prom_labels({**labels, "le": _prom_float(bound)})
                    lines.append(f"{pname}_bucket{lbl} {cumulative}")
                cumulative += metric.bucket_counts[-1]
                lbl = _prom_labels({**labels, "le": "+Inf"})
                lines.append(f"{pname}_bucket{lbl} {cumulative}")
                lines.append(f"{pname}_sum{_prom_labels(labels)} {_prom_float(metric.total)}")
                lines.append(f"{pname}_count{_prom_labels(labels)} {metric.count}")
            else:
                value = metric.value
                if value is None:
                    continue  # unset gauge: no sample
                lines.append(f"{pname}{_prom_labels(labels)} {_prom_float(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


class TextSummarySink:
    """Aggregate the stream into a one-screen text report.

    ``report()`` is available at any point; :meth:`close` writes the
    report to ``stream`` when one was given.
    """

    enabled: bool = True

    def __init__(self, stream: IO[str] | None = None) -> None:
        self.stream = stream
        self.counts: dict[str, int] = {}
        self.last_time: float = 0.0
        self.kills = 0
        self.capped = 0
        self.peak_queue = 0
        self.min_capacity: int | None = None

    def emit(self, event: SimEvent) -> None:
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        if event.time > self.last_time:
            self.last_time = event.time
        if isinstance(event, TaskCompleted) and not event.completed:
            self.kills += 1
        elif isinstance(event, AllocationDecided) and event.capped:
            self.capped += 1
        elif isinstance(event, QueueSampled) and event.waiting > self.peak_queue:
            self.peak_queue = event.waiting
        elif isinstance(event, CapacityChanged) and (
            self.min_capacity is None or event.capacity < self.min_capacity
        ):
            self.min_capacity = event.capacity

    def report(self) -> str:
        def n(name: str) -> int:
            return self.counts.get(name, 0)

        lines = [
            "trace summary:",
            f"  events: {sum(self.counts.values())} "
            f"(last simulated instant {self.last_time:.6g})",
            f"  tasks: {n('TaskRevealed')} revealed | {n('TaskStarted')} started | "
            f"{n('TaskCompleted') - self.kills} completed | {self.kills} killed",
            f"  allocations: {n('AllocationDecided')} decided "
            f"({self.capped} capped at ⌈µP⌉)",
            f"  queue: peak depth {self.peak_queue} over {n('QueueSampled')} samples",
        ]
        if n("FaultInjected") or n("RetryScheduled"):
            floor = "-" if self.min_capacity is None else str(self.min_capacity)
            lines.append(
                f"  resilience: {n('FaultInjected')} fault events | "
                f"{n('RetryScheduled')} retries | capacity floor {floor}"
            )
        return "\n".join(lines)

    def close(self) -> None:
        if self.stream is not None:
            self.stream.write(self.report() + "\n")
