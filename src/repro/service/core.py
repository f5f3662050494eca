"""Transport-independent core of the scheduler service.

:class:`ServiceCore` owns the shared pool and the write-ahead journal and
exposes one method per protocol mutation.  Every public method follows
the same discipline:

1. **validate** — admission control, quotas, backpressure.  Rejected
   requests raise a :class:`~repro.exceptions.ServiceError` subclass and
   touch *neither* the journal nor the pool;
2. **journal** — the accepted mutation is appended and flushed
   (write-ahead: durable before any effect is visible);
3. **apply** — the mutation is applied to the pool via the same
   ``_apply`` dispatcher that journal recovery uses, so the live path and
   the replay path cannot drift apart.

Recovery (:meth:`ServiceCore.recover`) streams the journal into an
identically-configured core, replaying each mutation through ``_apply``,
and reopens the journal for appending — after which
:meth:`state_digest` of the recovered core equals that of the crashed
one (the chaos harness's central assertion).

The core is synchronous and transport-free on purpose: the asyncio
server (:mod:`repro.service.server`) calls it inline from its session
coroutines and its tick callback, whose single-threaded event loop
orders the calls; tests drive it directly, and both get identical
semantics.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.exceptions import (
    AdmissionRejected,
    InvalidParameterError,
    JournalCorruptError,
    ProtocolError,
    QuotaExceeded,
    ServiceError,
    SessionClosed,
    SimulationError,
)
from repro.graph.io import model_from_dict, model_to_dict
from repro.obs.events import SimEvent
from repro.runtime.serialization import content_digest
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.journal import JournalTail, JournalWriter, iter_journal
from repro.service.pool import Notification, SharedPool
from repro.service.protocol import Hello, Submit
from repro.service.telemetry import ServiceTelemetry
from repro.speedup.base import SpeedupModel

__all__ = ["ServiceCore"]


class ServiceCore:
    """Validated, journaled facade over one :class:`SharedPool`."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        journal_path: str | Path | None = None,
        emit: Callable[[SimEvent], None] | None = None,
    ) -> None:
        self.config = config
        self.pool = SharedPool(config, emit=emit)
        self.journal: JournalWriter | None = (
            JournalWriter(journal_path, config) if journal_path is not None else None
        )
        self.telemetry = ServiceTelemetry(emit=emit)
        self.shed_count = 0

    # ------------------------------------------------------------------
    # Public mutations: validate -> journal -> apply
    # ------------------------------------------------------------------
    def _observed(self, op: str, tenant: str, fn: Callable[[], Any]) -> Any:
        """Run one request-shaped mutation under telemetry.

        Success and every :class:`~repro.exceptions.ServiceError` rejection
        are recorded (service + per-tenant counters, a correlated
        :class:`~repro.obs.events.ServiceRequestHandled` event when
        tracing); the exception still propagates unchanged, so callers see
        exactly the untelemetered behaviour.
        """
        try:
            result = fn()
        except ServiceError as exc:
            self.telemetry.record_request(
                self.pool.now,
                tenant,
                op,
                str(getattr(exc, "code", "SERVICE_ERROR")),
                retry_after=getattr(exc, "retry_after", None),
            )
            raise
        self.telemetry.record_request(self.pool.now, tenant, op, "ok")
        return result

    def hello(self, request: Hello) -> dict[str, Any]:
        """Admit a session; returns the ack info (effective quotas)."""
        return self._observed("hello", request.tenant, lambda: self._hello(request))

    def _hello(self, request: Hello) -> dict[str, Any]:
        tenant = request.tenant
        if not tenant or "/" in tenant:
            raise ProtocolError(
                f"tenant id must be a non-empty string without '/', got {tenant!r}"
            )
        existing = self.pool.tenants.get(tenant)
        if existing is not None and existing.active:
            raise AdmissionRejected(f"tenant {tenant!r} already has an open session")
        if self.pool.active_tenants() >= self.config.max_tenants:
            raise AdmissionRejected(
                f"service is at its session limit ({self.config.max_tenants})",
                retry_after=self.config.retry_after_s,
            )
        if request.priority < 0:
            raise ProtocolError(f"priority must be >= 0, got {request.priority}")
        # NaN fails every comparison, so a NaN deadline would never evict.
        if request.deadline is not None and not 0 < request.deadline < math.inf:
            raise ProtocolError(
                f"deadline must be finite and > 0, got {request.deadline}"
            )
        quota = self._clamped_quota(request)
        self._record(
            "hello",
            {
                "tenant": tenant,
                "priority": request.priority,
                "deadline": request.deadline,
                "quota": quota.as_dict(),
            },
        )
        return {
            "tenant": tenant,
            "priority": request.priority,
            "deadline": request.deadline,
            "quota": quota.as_dict(),
            "P": self.config.P,
        }

    def _clamped_quota(self, request: Hello) -> TenantQuota:
        """A session may shrink the default quota, never grow it."""
        default = self.config.quota
        inflight = default.max_inflight_tasks
        if request.max_inflight_tasks is not None:
            if request.max_inflight_tasks > inflight:
                raise QuotaExceeded(
                    f"max_inflight_tasks={request.max_inflight_tasks} exceeds "
                    f"the service ceiling {inflight}"
                )
            inflight = request.max_inflight_tasks
        procs = default.max_running_procs
        if request.max_running_procs is not None:
            if procs is not None and request.max_running_procs > procs:
                raise QuotaExceeded(
                    f"max_running_procs={request.max_running_procs} exceeds "
                    f"the service ceiling {procs}"
                )
            procs = min(request.max_running_procs, self.config.P)
        return TenantQuota(max_inflight_tasks=inflight, max_running_procs=procs)

    def submit(self, tenant: str, request: Submit) -> tuple[dict[str, Any], list[Notification]]:
        """Accept one task; returns (ack info, shedding notifications).

        Backpressure and quota checks happen here — *before* the journal
        write — so a rejected submission leaves no trace and the client's
        retry (after ``retry_after``) is a clean resubmission.
        """
        return self._observed("submit", tenant, lambda: self._submit(tenant, request))

    def _submit(
        self, tenant: str, request: Submit
    ) -> tuple[dict[str, Any], list[Notification]]:
        run = self._open_run(tenant)
        if request.task in run.tasks:
            raise ProtocolError(f"task {request.task!r} was already submitted")
        for dep in request.deps:
            pred = run.tasks.get(dep)
            if pred is None:
                raise ProtocolError(
                    f"task {request.task!r} names unknown predecessor {dep!r} "
                    "(submit tasks in topological order)"
                )
        if run.inflight >= run.quota.max_inflight_tasks:
            raise QuotaExceeded(
                f"tenant {tenant!r} has {run.inflight} tasks in flight "
                f"(quota {run.quota.max_inflight_tasks})",
                retry_after=self.config.retry_after_s,
            )
        if self.pool.queue_depth() >= self.config.max_queue_depth:
            raise AdmissionRejected(
                f"shared queue is full ({self.config.max_queue_depth} waiting)",
                retry_after=self.config.retry_after_s,
            )
        # Parse once: the journal holds the model's dict form (recovery
        # rebuilds it with ``model_from_dict``), while the pool gets the
        # model the protocol layer already parsed.  Both are the same
        # class with the same parameters, so they allocate and run alike.
        payload = {"tenant": tenant, "task": request.task, "model": request.model,
                   "deps": request.deps}
        if self.journal is not None:
            self._journal("submit", {**payload, "model": model_to_dict(request.model),
                                     "deps": list(request.deps)})
        self._apply("submit", payload)
        info = {"task": request.task, "inflight": run.inflight}
        return info, self._shed_if_overloaded()

    def close(self, tenant: str) -> tuple[dict[str, Any], list[Notification]]:
        """Declare the tenant's DAG complete.

        Returns (ack info, notifications) — the notifications carry the
        synthesized ``graph-done`` when the DAG had already drained.
        """
        return self._observed("close", tenant, lambda: self._close(tenant))

    def _close(self, tenant: str) -> tuple[dict[str, Any], list[Notification]]:
        run = self._open_run(tenant)
        if run.status != "open":
            raise SessionClosed(f"tenant {tenant!r} already closed its graph")
        notes = self._record("close", {"tenant": tenant})
        assert isinstance(notes, list)
        self._observe_notes(notes)
        return {"drained": bool(notes), "inflight": run.inflight}, notes

    def cancel(self, tenant: str, reason: str = "CANCELLED") -> dict[str, Any]:
        """Cancel a session on client request, releasing its capacity."""
        return self._observed("cancel", tenant, lambda: self._cancel(tenant, reason))

    def _cancel(self, tenant: str, reason: str) -> dict[str, Any]:
        run = self.pool.tenants.get(tenant)
        if run is None or not run.active:
            raise SessionClosed(f"tenant {tenant!r} has no active session")
        self._record("cancel", {"tenant": tenant, "reason": reason})
        return {"tenant": tenant, "reason": reason}

    def fault(self, kind: str, proc: int) -> list[Notification]:
        """Inject one processor fault (chaos harness / fault driver)."""
        if kind not in ("fail", "recover"):
            raise ProtocolError(f"fault kind must be fail/recover, got {kind!r}")
        try:
            self.pool.check_fault(proc, kind)
        except (InvalidParameterError, SimulationError) as exc:
            raise ProtocolError(str(exc)) from exc
        notes = self._record("fault", {"fault_kind": kind, "proc": proc})
        assert isinstance(notes, list)
        return self._observe_notes(notes)

    def tick(self, max_events: int | None = None) -> list[Notification]:
        """Advance virtual time by up to ``max_events`` completion events.

        Idle ticks (nothing scheduled) are **not** journaled — the journal
        records only mutations that change state, so an idle service does
        not grow its WAL.
        """
        if self.pool.idle() or not self.pool.has_pending_events():
            return []
        budget = self.config.tick_events if max_events is None else max_events
        if budget < 1:
            raise ProtocolError(f"tick budget must be >= 1, got {budget}")
        notes = self._record("tick", {"max_events": budget})
        assert isinstance(notes, list)
        return self._observe_notes(notes)

    def drain(self, *, max_ticks: int = 100_000) -> list[Notification]:
        """Tick until no events remain (bounded; test/CLI convenience)."""
        notes: list[Notification] = []
        for _ in range(max_ticks):
            if not self.pool.has_pending_events():
                return notes
            notes.extend(self.tick())
        raise ServiceError(f"pool did not drain within {max_ticks} ticks")

    # ------------------------------------------------------------------
    # Load shedding
    # ------------------------------------------------------------------
    def _shed_if_overloaded(self) -> list[Notification]:
        """Evict lowest-priority tenants while the queue is past threshold.

        Victim order is deterministic: lowest ``priority`` first, newest
        session first among equals (long-running work is protected).  The
        eviction itself is journaled, so replay reproduces it bit-exactly
        even though the *decision* was made by this policy.
        """
        threshold = self.config.shed_threshold
        notes: list[Notification] = []
        if threshold is None:
            return notes
        while self.pool.queue_depth() >= threshold:
            victim = None
            for index, (tenant, run) in enumerate(self.pool.tenants.items()):
                if not run.active:
                    continue
                key = (run.priority, -index)
                if victim is None or key < victim[0]:
                    victim = (key, tenant)
            if victim is None:
                return notes
            self.shed_count += 1
            self._record("cancel", {"tenant": victim[1], "reason": "SHED"})
            self.telemetry.record_shed(self.pool.now, victim[1])
            notes.append(
                (
                    victim[1],
                    {
                        "event": "evicted",
                        "reason": "SHED",
                        "message": "service overloaded; lowest-priority session shed",
                    },
                )
            )
        return notes

    # ------------------------------------------------------------------
    # Journal + apply
    # ------------------------------------------------------------------
    def _record(self, op: str, payload: Mapping[str, Any]) -> Any:
        """Write-ahead: journal the mutation, then apply it to the pool."""
        self._journal(op, payload)
        return self._apply(op, payload)

    def _journal(self, op: str, payload: Mapping[str, Any]) -> None:
        """Append and flush one mutation record (no-op without a journal)."""
        if self.journal is not None:
            seq = self.journal.append(op, payload)
            self.telemetry.record_journal(self.pool.now, op, seq, "append")

    def _apply(self, op: str, payload: Mapping[str, Any]) -> Any:
        """Apply one journaled mutation (the only path that mutates the pool)."""
        if op == "hello":
            quota = payload.get("quota")
            self.pool.admit_tenant(
                str(payload["tenant"]),
                priority=int(payload.get("priority") or 0),
                quota=TenantQuota(**dict(quota)) if isinstance(quota, Mapping) else None,
                deadline=payload.get("deadline"),
            )
            return None
        if op == "submit":
            model = payload["model"]
            if not isinstance(model, SpeedupModel):
                model = model_from_dict(model)
            self.pool.submit(
                str(payload["tenant"]),
                str(payload["task"]),
                model,
                tuple(str(d) for d in payload.get("deps") or ()),
            )
            return None
        if op == "close":
            return self.pool.close_tenant(str(payload["tenant"]))
        if op == "cancel":
            self.pool.cancel_tenant(
                str(payload["tenant"]), str(payload.get("reason") or "CANCELLED")
            )
            return None
        if op == "fault":
            return self.pool.fault(str(payload["fault_kind"]), int(payload["proc"]))
        if op == "tick":
            return self.pool.tick(int(payload["max_events"]))
        raise JournalCorruptError(f"unknown journaled op {op!r}")

    def _observe_notes(self, notes: list[Notification]) -> list[Notification]:
        """Fold outbound notifications into the telemetry channels.

        ``task-done`` feeds per-tenant task counters and the duration
        histogram, ``graph-done`` records makespans and (for sessions
        that carried a deadline) a deadline *hit*, and a
        ``DEADLINE_EXCEEDED`` eviction records the matching *miss*.
        Returns ``notes`` unchanged so call sites stay expression-shaped.
        """
        telemetry = self.telemetry
        now = self.pool.now
        for tenant, payload in notes:
            event = payload.get("event")
            if event == "task-done":
                duration = float(payload["end"]) - float(payload["start"])  # type: ignore[arg-type]
                telemetry.record_task_done(now, tenant, duration, int(payload["procs"]))  # type: ignore[arg-type]
            elif event == "graph-done":
                telemetry.record_graph_done(now, tenant, float(payload["makespan"]))  # type: ignore[arg-type]
                run = self.pool.tenants.get(tenant)
                if run is not None and run.deadline is not None:
                    telemetry.record_deadline(now, tenant, run.deadline, missed=False)
            elif event == "evicted" and payload.get("reason") == "DEADLINE_EXCEEDED":
                run = self.pool.tenants.get(tenant)
                deadline = run.deadline if run is not None and run.deadline is not None else now
                telemetry.record_deadline(now, tenant, deadline, missed=True)
        return notes

    # ------------------------------------------------------------------
    # Introspection / recovery
    # ------------------------------------------------------------------
    def _open_run(self, tenant: str) -> Any:
        run = self.pool.tenants.get(tenant)
        if run is None or not run.active:
            raise SessionClosed(f"tenant {tenant!r} has no active session")
        if run.status != "open":
            raise SessionClosed(f"tenant {tenant!r} already closed its graph")
        return run

    def status(self) -> dict[str, Any]:
        """Read-only snapshot (never journaled)."""
        payload = dict(self.pool.snapshot())
        payload["shed"] = self.shed_count
        payload["journal_records"] = (
            None if self.journal is None else self.journal.next_seq
        )
        return payload

    def stats_payload(self) -> dict[str, Any]:
        """Telemetry snapshot (service + per-tenant registries; never journaled)."""
        return self.telemetry.stats_payload()

    def state_digest(self) -> str:
        """Content address of the full semantic state (config + pool).

        Two cores with equal digests are behaviourally indistinguishable;
        recovery correctness is defined as digest equality with the
        pre-crash core.
        """
        return content_digest(
            {"config": self.config.as_dict(), "pool": self.pool.state_stream()}
        )

    def close_journal(self) -> None:
        if self.journal is not None:
            self.journal.close()

    @classmethod
    def recover(
        cls,
        journal_path: str | Path,
        *,
        reopen: bool = True,
        emit: Callable[[SimEvent], None] | None = None,
    ) -> "ServiceCore":
        """Rebuild a core from its journal (the crash-recovery path).

        Replays every acknowledged mutation through :meth:`_apply` on a
        fresh pool as it is read, so recovery holds the pool's state and
        one journal record, never the whole journal; then (with
        ``reopen=True``) reattaches the journal for continued appends.
        Raises :class:`~repro.exceptions.JournalCorruptError` on any
        journal damage other than one torn tail line, when the reader
        reaches it; the partly replayed core is dropped.  The reopened
        writer resumes where the replay's scan ended.
        """
        tail = JournalTail()
        config, mutations = iter_journal(journal_path, tail)
        core = cls(config, journal_path=None, emit=emit)
        for payload in mutations:
            del payload["kind"]
            op = str(payload.pop("op"))
            core.telemetry.record_journal(core.pool.now, op, int(payload.pop("seq")), "replay")
            core._apply(op, payload)
        if reopen:
            core.journal = JournalWriter(journal_path, config, tail=tail)
        return core
