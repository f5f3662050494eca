"""The shared processor pool: a multi-tenant, virtual-time list scheduler.

This is the engine room of the scheduler service.  It keeps the exact
semantics of the paper's list-scheduling loop
(:class:`~repro.sim.engine.ListScheduler`) — reveal-time allocation via
Algorithm 2, FIFO queue passes, simultaneous completions draining
together — but runs them *incrementally*: instead of consuming a closed
DAG to exhaustion, the pool is mutated one operation at a time (submit /
tick / fault / cancel) by :class:`~repro.service.core.ServiceCore` in
journal order.  Given the same mutation sequence the pool is a pure
function: replaying a journal reconstructs bit-identical state, which is
what makes crash recovery digest-verifiable.

Multi-tenancy adds two policies on top of the engine semantics, both
deterministic:

* **Fair share.**  Each queue pass examines waiting tasks ordered by
  ``(tenant's currently running processors, arrival seq)`` — tenants
  occupying less of the pool go first, and within a tenant the order is
  FIFO.  With a single tenant this reduces *exactly* to the engine's
  FIFO pass (pinned by the engine-equivalence tests).
* **Processor quotas.**  A task whose start would push its tenant past
  ``max_running_procs`` stays queued without blocking tasks of other
  tenants behind it.

Faults reuse the resilient engine's machinery: processors have
identities, a failure kills the victim attempt and shrinks the live
capacity, retries back off in virtual time, and queued allocations are
re-capped when the live capacity changes.  An embedded
:class:`~repro.sim.feasibility.InvariantChecker` cross-checks every
transition (task identities are scoped to a session: a tenant's tasks are
forgotten when its run finishes or is cancelled), and
:meth:`SharedPool.check_conservation` verifies processor conservation
(free + down + owned = P, pairwise disjoint) after every mutation.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.allocator import LpaAllocator
from repro.exceptions import ServiceError, SimulationError
from repro.obs.events import (
    CapacityChanged,
    FaultInjected,
    QueueSampled,
    RetryScheduled,
    SimEvent,
    TaskCompleted,
    TaskRevealed,
    TaskStarted,
)
from repro.service.config import ServiceConfig, TenantQuota
from repro.sim.allocation import Allocation, Allocator
from repro.sim.feasibility import InvariantChecker
from repro.speedup.base import SpeedupModel

__all__ = ["SharedPool", "PoolTask", "TenantRun", "Notification", "PoolStats"]

#: Emission hook type (``None`` when tracing is off), engine idiom.
_Emit = Callable[[SimEvent], None]


@dataclass
class PoolStats:
    """Service-level throughput counters (observability only)."""

    submitted: int = 0
    decisions: int = 0
    started: int = 0
    completed: int = 0
    killed: int = 0
    cancelled: int = 0
    ticks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "decisions": self.decisions,
            "started": self.started,
            "completed": self.completed,
            "killed": self.killed,
            "cancelled": self.cancelled,
            "ticks": self.ticks,
        }


@dataclass
class PoolTask:
    """One tenant task tracked by the pool across its whole lifecycle."""

    tenant: str
    task_id: str
    model: SpeedupModel
    #: ``blocked`` (predecessors unfinished) -> ``queued`` -> ``running``
    #: -> ``done``; ``cancelled`` is terminal from any live state.
    state: str = "blocked"
    waiting_on: set[str] = field(default_factory=set)
    successors: list[str] = field(default_factory=list)
    attempt: int = 1
    start: float = -1.0
    end: float = -1.0
    procs: int = 0
    #: Processor ids of the running attempt (empty when not running).
    proc_ids: tuple[int, ...] = ()
    #: Due time of the pending retry (``-1`` when none is pending).
    retry_at: float = -1.0


@dataclass
class TenantRun:
    """Per-tenant pool-side state (quota usage, DAG bookkeeping, results)."""

    tenant: str
    priority: int
    quota: TenantQuota
    #: Virtual instant the session was admitted (makespans are relative to it).
    t0: float
    #: Virtual-time deadline for the whole session (``None`` = none).
    deadline: float | None = None
    #: ``open`` -> ``closed`` (DAG declared complete) -> ``finished``;
    #: ``cancelled`` is terminal from ``open``/``closed``.
    status: str = "open"
    #: Terminal reason for cancelled tenants (error code).
    reason: str = ""
    tasks: dict[str, PoolTask] = field(default_factory=dict)
    inflight: int = 0
    running_procs: int = 0
    completed: int = 0

    @property
    def active(self) -> bool:
        return self.status in ("open", "closed")

    def is_drained(self) -> bool:
        """Closed and every submitted task completed."""
        return self.status == "closed" and self.inflight == 0


@dataclass(frozen=True)
class _QueueEntry:
    """A revealed task waiting for processors."""

    tenant: str
    task_id: str
    allocation: Allocation
    seq: int
    attempt: int = 1
    cap_at_alloc: int = -1


#: (tenant, response-shaped payload) routed to sessions by the server.
Notification = tuple[str, dict[str, object]]


class SharedPool:
    """Deterministic multi-tenant list scheduler over ``P`` processors."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        allocator: Allocator | None = None,
        emit: _Emit | None = None,
    ) -> None:
        self.config = config
        self.P = config.P
        self.allocator: Allocator = (
            allocator if allocator is not None else LpaAllocator(config.effective_mu)
        )
        self.emit = emit
        self.now: float = 0.0
        self.capacity: int = config.P
        self.free_set: set[int] = set(range(config.P))
        self.down: set[int] = set()
        #: processor -> (tenant, task_id) of the attempt occupying it.
        self.proc_owner: dict[int, tuple[str, str]] = {}
        self.tenants: dict[str, TenantRun] = {}
        self.queue: list[_QueueEntry] = []
        #: Event heap: (time, seq, kind, tenant, task_id, attempt) with
        #: kind ``complete`` or ``retry``.
        self.events: list[tuple[float, int, str, str, str, int]] = []
        self._seq = itertools.count()
        self.stats = PoolStats()
        self.checker = InvariantChecker(config.P)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _key(self, tenant: str, task_id: str) -> str:
        """Composite id used in obs events and the invariant checker."""
        return f"{tenant}/{task_id}"

    def _effective_cap(self, run: TenantRun) -> int:
        """Allocation ceiling for one tenant: live capacity, quota-capped.

        Capping the *allocation* (not just the start decision) at the
        tenant's processor quota is what makes quotas deadlock-free: a
        task can never be handed an allocation it is forbidden to run.
        With no quota this is exactly the live capacity, i.e. the
        engine's own rule.
        """
        cap = self.capacity
        limit = run.quota.max_running_procs
        if limit is not None and limit < cap:
            cap = limit
        return max(cap, 1)  # provisional floor if the platform is fully down

    def _allocate(self, model: SpeedupModel, cap: int) -> Allocation:
        allocate = getattr(self.allocator, "allocate_cached", None)
        if not callable(allocate):
            allocate = self.allocator.allocate
        alloc = allocate(model, cap, free=len(self.free_set))
        if not 1 <= alloc.final <= cap:
            raise SimulationError(
                f"allocator returned infeasible allocation {alloc} on P_t={cap}"
            )
        self.stats.decisions += 1
        return alloc

    def _reveal(self, run: TenantRun, task: PoolTask) -> None:
        """A task's predecessors are done: fix its allocation, enqueue it."""
        cap = self._effective_cap(run)
        alloc = self._allocate(task.model, cap)
        task.state = "queued"
        entry = _QueueEntry(
            run.tenant, task.task_id, alloc, next(self._seq),
            attempt=task.attempt, cap_at_alloc=cap,
        )
        self.queue.append(entry)
        if task.attempt == 1:  # a retry re-queues, it reveals nothing new
            key = self._key(run.tenant, task.task_id)
            self.checker.on_reveal(self.now, key)
            if self.emit is not None:
                self.emit(TaskRevealed(self.now, key))

    # ------------------------------------------------------------------
    # Mutations (called by ServiceCore in journal order)
    # ------------------------------------------------------------------
    def admit_tenant(
        self,
        tenant: str,
        *,
        priority: int = 0,
        quota: TenantQuota | None = None,
        deadline: float | None = None,
    ) -> TenantRun:
        """Register a tenant (admission checks happen in the core)."""
        if tenant in self.tenants and self.tenants[tenant].active:
            raise ServiceError(f"tenant {tenant!r} already active")
        run = TenantRun(
            tenant=tenant,
            priority=priority,
            quota=quota if quota is not None else self.config.quota,
            t0=self.now,
            deadline=None if deadline is None else self.now + deadline,
        )
        self.tenants[tenant] = run
        return run

    def submit(
        self, tenant: str, task_id: str, model: SpeedupModel, deps: tuple[str, ...]
    ) -> None:
        """Add one task to ``tenant``'s DAG; reveal it if already ready.

        Validation (unknown tenant, duplicate task, unknown predecessors,
        quota) is the core's job; the pool still hard-fails on states that
        should be unreachable so bugs surface as exceptions, not silent
        corruption.
        """
        run = self.tenants[tenant]
        if not run.active or run.status != "open":
            raise ServiceError(f"tenant {tenant!r} is not accepting submissions")
        if task_id in run.tasks:
            raise ServiceError(f"task {task_id!r} submitted twice by {tenant!r}")
        task = PoolTask(tenant=tenant, task_id=task_id, model=model)
        for dep in deps:
            pred = run.tasks.get(dep)
            if pred is None:
                raise ServiceError(
                    f"task {task_id!r} depends on unknown task {dep!r}"
                )
            if pred.state != "done":
                task.waiting_on.add(dep)
                pred.successors.append(task_id)
        run.tasks[task_id] = task
        run.inflight += 1
        self.stats.submitted += 1
        if not task.waiting_on:
            self._reveal(run, task)
            self._scan()
        self._sample()

    def close_tenant(self, tenant: str) -> list[Notification]:
        """Mark the DAG complete.

        If every submitted task already finished (the whole graph drained
        while the session was still open), the terminal ``graph-done``
        notification is synthesized here — otherwise the final
        completion's :meth:`tick` emits it.
        """
        run = self.tenants[tenant]
        if run.status != "open":
            raise ServiceError(f"tenant {tenant!r} is not open")
        run.status = "closed"
        if run.is_drained():
            self._finish(run, "finished")
            return [(tenant, self._graph_done_payload(run))]
        return []

    def _finish(self, run: TenantRun, status: str) -> None:
        """End a tenant's run; its task ids become free for a later session."""
        run.status = status
        self.checker.forget(self._key(run.tenant, t) for t in run.tasks)

    def _graph_done_payload(self, run: TenantRun) -> dict[str, object]:
        makespan = (
            max(
                (t.end for t in run.tasks.values() if t.state == "done"),
                default=run.t0,
            )
            - run.t0
        )
        return {"event": "graph-done", "makespan": makespan, "tasks": run.completed}

    def cancel_tenant(self, tenant: str, reason: str) -> None:
        """Terminate a tenant: kill running attempts, drop queued work.

        Every processor the tenant occupied returns to the free set — the
        capacity-conservation guarantee cancellation tests pin.
        """
        run = self.tenants[tenant]
        if not run.active:
            return
        for entry in self.queue:
            if entry.tenant == tenant:
                run.tasks[entry.task_id].state = "cancelled"
        self.queue = [e for e in self.queue if e.tenant != tenant]
        for task in run.tasks.values():
            if task.state == "running":
                self._release_procs(task)
                self.checker.on_kill(self.now, self._key(tenant, task.task_id))
                if self.emit is not None:
                    self.emit(
                        TaskCompleted(
                            self.now, self._key(tenant, task.task_id),
                            task.procs, task.start, task.attempt, False,
                        )
                    )
                task.state = "cancelled"
                run.running_procs -= task.procs
            elif task.state in ("blocked", "killed"):
                task.state = "cancelled"
        self._finish(run, "cancelled")
        run.reason = reason
        run.inflight = 0
        run.running_procs = 0
        self.stats.cancelled += 1
        self._scan()  # released capacity may start other tenants' work
        self._sample()

    def fault(self, kind: str, proc: int) -> list[Notification]:
        """Apply one processor fault event (``fail`` / ``recover``)."""
        if not 0 <= proc < self.P:
            raise ServiceError(f"processor index {proc} outside [0, {self.P})")
        notes: list[Notification] = []
        if self.emit is not None:
            self.emit(FaultInjected(self.now, proc, kind))
        if kind == "fail":
            if proc in self.down:
                raise ServiceError(f"processor {proc} failed twice")
            self.down.add(proc)
            self.capacity -= 1
            if proc in self.free_set:
                self.free_set.discard(proc)
            else:
                victim = self.proc_owner.get(proc)
                if victim is not None:
                    notes.extend(self._kill(victim[0], victim[1]))
        elif kind == "recover":
            if proc not in self.down:
                raise ServiceError(f"processor {proc} recovered while up")
            self.down.discard(proc)
            self.capacity += 1
            self.free_set.add(proc)
        else:
            raise ServiceError(f"unknown fault kind {kind!r}")
        self.checker.on_capacity(self.now, self.capacity)
        if self.emit is not None:
            self.emit(CapacityChanged(self.now, self.capacity))
        self._scan()
        self._sample()
        self.check_conservation()
        return notes

    def tick(self, max_events: int) -> list[Notification]:
        """Advance virtual time through up to ``max_events`` event instants.

        Processes whole instants (simultaneous completions drain
        together, exactly like the engine), reveals successors in
        completion order, runs one fair-share queue pass per instant, and
        enforces virtual-time session deadlines.  Returns notifications
        (task/graph completions, evictions) for the server to route.
        """
        notes: list[Notification] = []
        self.stats.ticks += 1
        processed = 0
        while self.events and processed < max_events:
            self.now = self.events[0][0]
            revealed: list[tuple[TenantRun, PoolTask]] = []
            retries: list[tuple[TenantRun, PoolTask]] = []
            while self.events and self.events[0][0] == self.now:
                _, _, kind, tenant, task_id, attempt = heapq.heappop(self.events)
                processed += 1
                run = self.tenants[tenant]
                task = run.tasks.get(task_id)
                if task is None or not run.active or task.attempt != attempt:
                    continue  # tenant cancelled, or the attempt was killed
                # An event acts only if it is due now: one left by an earlier
                # session of a re-admitted tenant that reused the id is stale.
                if kind == "retry":
                    if task.state == "killed" and task.retry_at == self.now:
                        task.retry_at = -1.0  # a twin stale event finds none due
                        retries.append((run, task))
                elif task.state == "running" and task.end == self.now:
                    notes.extend(self._complete(run, task, revealed))
            for run, task in retries + revealed:
                self._reveal(run, task)
            self._scan()
            notes.extend(self._check_deadlines())
            self._sample()
        self.check_conservation()
        return notes

    # ------------------------------------------------------------------
    # Internal transitions
    # ------------------------------------------------------------------
    def _complete(
        self,
        run: TenantRun,
        task: PoolTask,
        revealed: list[tuple[TenantRun, PoolTask]],
    ) -> list[Notification]:
        notes: list[Notification] = []
        key = self._key(run.tenant, task.task_id)
        self._release_procs(task)
        task.state = "done"
        task.end = self.now
        run.running_procs -= task.procs
        run.inflight -= 1
        run.completed += 1
        self.stats.completed += 1
        self.checker.on_complete(self.now, key)
        if self.emit is not None:
            self.emit(TaskCompleted(self.now, key, task.procs, task.start, task.attempt))
        notes.append(
            (
                run.tenant,
                {
                    "event": "task-done",
                    "task": task.task_id,
                    "start": task.start,
                    "end": task.end,
                    "procs": task.procs,
                },
            )
        )
        for succ_id in task.successors:
            succ = run.tasks[succ_id]
            if succ.state != "blocked":
                continue
            succ.waiting_on.discard(task.task_id)
            if not succ.waiting_on:
                revealed.append((run, succ))
        if run.is_drained():
            self._finish(run, "finished")
            notes.append((run.tenant, self._graph_done_payload(run)))
        return notes

    def _kill(self, tenant: str, task_id: str) -> list[Notification]:
        """A fault killed a running attempt: free survivors, queue the retry."""
        run = self.tenants[tenant]
        task = run.tasks[task_id]
        key = self._key(tenant, task_id)
        self._release_procs(task)  # the failed processor is already down
        run.running_procs -= task.procs
        self.stats.killed += 1
        self.checker.on_kill(self.now, key)
        if self.emit is not None:
            self.emit(TaskCompleted(self.now, key, task.procs, task.start, task.attempt, False))
        notes: list[Notification] = [
            (tenant, {"event": "task-killed", "task": task_id, "attempt": task.attempt})
        ]
        killed_attempt = task.attempt
        task.state = "killed"  # before any evict: the attempt is fully released
        task.procs = 0
        next_attempt = killed_attempt + 1
        if next_attempt > self.config.fault_max_attempts:
            notes.extend(
                self._evict(
                    run,
                    "RETRY_EXHAUSTED",
                    f"task {task_id!r} killed {killed_attempt} times "
                    f"(fault_max_attempts={self.config.fault_max_attempts})",
                )
            )
            return notes
        task.attempt = next_attempt
        delay = 0.0
        if self.config.fault_backoff > 0:
            delay = self.config.fault_backoff * (2.0 ** (next_attempt - 2))
        if self.emit is not None:
            self.emit(RetryScheduled(self.now, key, next_attempt, delay))
        if delay > 0:
            task.retry_at = self.now + delay
            heapq.heappush(
                self.events,
                (task.retry_at, next(self._seq), "retry", tenant, task_id, next_attempt),
            )
        else:
            self._reveal(run, task)
        return notes

    def _evict(self, run: TenantRun, reason: str, message: str) -> list[Notification]:
        self.cancel_tenant(run.tenant, reason)
        return [
            (run.tenant, {"event": "evicted", "reason": reason, "message": message})
        ]

    def _check_deadlines(self) -> list[Notification]:
        notes: list[Notification] = []
        for tenant in sorted(self.tenants):
            run = self.tenants[tenant]
            if run.active and run.deadline is not None and self.now >= run.deadline:
                notes.extend(
                    self._evict(
                        run,
                        "DEADLINE_EXCEEDED",
                        f"session deadline {run.deadline - run.t0:.6g} overran "
                        f"at t={self.now:.6g}",
                    )
                )
        return notes

    def _release_procs(self, task: PoolTask) -> None:
        """Return a running attempt's processors to the free set (down ones stay down)."""
        for q in task.proc_ids:
            del self.proc_owner[q]
            if q not in self.down:
                self.free_set.add(q)
        task.proc_ids = ()

    def _scan(self) -> None:
        """One fair-share queue pass: start everything that fits.

        Entries are visited ordered by ``(tenant running procs at pass
        start, seq)``; quota-blocked entries are skipped without blocking
        later entries; allocations computed for a different live capacity
        are re-capped first (the resilient engine's rule).
        """
        if not self.queue or self.capacity < 1:
            return
        usage = {t: run.running_procs for t, run in self.tenants.items()}
        order = sorted(self.queue, key=lambda e: (usage[e.tenant], e.seq))
        started: set[int] = set()
        replaced: dict[int, _QueueEntry] = {}
        for entry in order:
            run = self.tenants[entry.tenant]
            task = run.tasks[entry.task_id]
            cap = self._effective_cap(run)
            if entry.cap_at_alloc != cap:
                alloc = self._allocate(task.model, cap)
                entry = _QueueEntry(
                    entry.tenant, entry.task_id, alloc, entry.seq,
                    attempt=entry.attempt, cap_at_alloc=cap,
                )
                replaced[entry.seq] = entry
            procs = entry.allocation.final
            if procs > self.capacity:
                raise SimulationError(
                    f"task {entry.task_id!r}: allocation {procs} exceeds live "
                    f"capacity P_t={self.capacity} at t={self.now:.6g}"
                )
            limit = run.quota.max_running_procs
            if limit is not None and usage[entry.tenant] + procs > limit:
                continue  # quota-blocked: stays queued, others overtake
            if procs <= len(self.free_set):
                self._start(run, task, entry)
                usage[entry.tenant] += procs
                started.add(entry.seq)
        if started or replaced:
            self.queue = [
                replaced.get(e.seq, e) for e in self.queue if e.seq not in started
            ]

    def _start(self, run: TenantRun, task: PoolTask, entry: _QueueEntry) -> None:
        procs = entry.allocation.final
        ids = tuple(sorted(self.free_set)[:procs])
        self.free_set.difference_update(ids)
        owner = (run.tenant, task.task_id)
        for q in ids:
            self.proc_owner[q] = owner
        task.proc_ids = ids
        duration = task.model.time(procs)
        task.state = "running"
        task.start = self.now
        task.end = self.now + duration
        task.procs = procs
        run.running_procs += procs
        self.stats.started += 1
        key = self._key(run.tenant, task.task_id)
        self.checker.on_start(self.now, key, procs, task.attempt)
        if self.emit is not None:
            self.emit(TaskStarted(self.now, key, procs, task.end, task.attempt))
        heapq.heappush(
            self.events,
            (task.end, next(self._seq), "complete", run.tenant, task.task_id, task.attempt),
        )

    def _sample(self) -> None:
        if self.emit is not None:
            self.emit(QueueSampled(self.now, len(self.queue), len(self.free_set)))

    # ------------------------------------------------------------------
    # Introspection & invariants
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        return len(self.queue)

    def has_pending_events(self) -> bool:
        return bool(self.events)

    def idle(self) -> bool:
        """No queued work and no future events: ticking is a no-op."""
        return not self.events and not self.queue

    def active_tenants(self) -> int:
        return sum(1 for run in self.tenants.values() if run.active)

    def check_conservation(self) -> None:
        """Processor conservation: free + down + owned = P, disjoint.

        Raises :class:`~repro.exceptions.SimulationError` on any leak —
        the chaos harness calls this after every injected disturbance.
        """
        owned = set(self.proc_owner)
        if self.free_set & owned or self.free_set & self.down or owned & self.down:
            raise SimulationError(
                f"processor sets overlap: free={sorted(self.free_set)} "
                f"owned={sorted(owned)} down={sorted(self.down)}"
            )
        total = len(self.free_set) + len(owned) + len(self.down)
        if total != self.P:
            raise SimulationError(
                f"processor leak: {len(self.free_set)} free + {len(owned)} owned "
                f"+ {len(self.down)} down != P={self.P}"
            )
        if self.capacity != self.P - len(self.down):
            raise SimulationError(
                f"capacity {self.capacity} disagrees with P - down = "
                f"{self.P - len(self.down)}"
            )
        running_by_tenant: dict[str, int] = {}
        for tenant, _task in self.proc_owner.values():
            running_by_tenant[tenant] = running_by_tenant.get(tenant, 0) + 1
        for tenant, procs in running_by_tenant.items():
            run = self.tenants[tenant]
            if run.running_procs != procs:
                raise SimulationError(
                    f"tenant {tenant!r} accounts {run.running_procs} running "
                    f"procs but owns {procs}"
                )
            limit = run.quota.max_running_procs
            if limit is not None and procs > limit:
                raise SimulationError(
                    f"tenant {tenant!r} occupies {procs} procs over quota {limit}"
                )

    def state_dict(self) -> dict[str, object]:
        """Canonical semantic state (the digest input; JSON-safe).

        Covers everything that affects future behaviour: virtual clock,
        processor sets, queue, event heap, and per-tenant task states.
        Observability counters are excluded (they are not semantics).
        """
        tenants = {}
        for tenant in sorted(self.tenants):
            run = self.tenants[tenant]
            tenants[tenant] = {
                "priority": run.priority,
                "quota": run.quota.as_dict(),
                "t0": run.t0,
                "deadline": run.deadline,
                "status": run.status,
                "reason": run.reason,
                "inflight": run.inflight,
                "completed": run.completed,
                "tasks": {
                    tid: {
                        "state": t.state,
                        "attempt": t.attempt,
                        "start": t.start,
                        "end": t.end,
                        "procs": t.procs,
                        "waiting_on": sorted(t.waiting_on),
                    }
                    for tid, t in sorted(run.tasks.items())
                },
            }
        return {
            "now": self.now,
            "capacity": self.capacity,
            "free": sorted(self.free_set),
            "down": sorted(self.down),
            "owner": {str(q): list(v) for q, v in sorted(self.proc_owner.items())},
            "queue": [
                [e.tenant, e.task_id, e.allocation.final, e.seq, e.attempt]
                for e in self.queue
            ],
            "events": sorted(
                [t, s, kind, tenant, task, attempt]
                for t, s, kind, tenant, task, attempt in self.events
            ),
            "tenants": tenants,
        }

    def snapshot(self) -> Mapping[str, object]:
        """Status-endpoint payload: coarse state + throughput counters."""
        return {
            "now": self.now,
            "P": self.P,
            "capacity": self.capacity,
            "free": len(self.free_set),
            "down": len(self.down),
            "queue_depth": len(self.queue),
            "pending_events": len(self.events),
            "tenants": {
                t: {
                    "status": run.status,
                    "inflight": run.inflight,
                    "running_procs": run.running_procs,
                    "completed": run.completed,
                }
                for t, run in sorted(self.tenants.items())
            },
            "stats": self.stats.as_dict(),
        }
