"""The shared processor pool: a multi-tenant, virtual-time list scheduler.

This is the engine room of the scheduler service.  It runs the engine's
own Algorithm-1 core, :class:`~repro.sim.engine.SlotLoop` — reveal-time
allocation via Algorithm 2, queue passes, simultaneous completions
draining together, processor faults, retries with backoff — but drives
it *incrementally*: instead of consuming a closed DAG to exhaustion, the
pool is mutated one operation at a time (submit / tick / fault / cancel)
by :class:`~repro.service.core.ServiceCore` in journal order.  Each
submitted task is one slot of the loop.  Given the same mutation
sequence the pool is a pure function: replaying a journal reconstructs
bit-identical state, which is what makes crash recovery
digest-verifiable.

Multi-tenancy enters the loop only as policy (the pool is the loop's
:class:`~repro.sim.engine.Tenancy`), and both policies are deterministic:

* **Fair share.**  Each queue pass examines waiting tasks ordered by
  ``(tenant's running processors at pass start, arrival seq)`` — tenants
  occupying less of the pool go first, and within a tenant the order is
  FIFO.  With a single tenant this reduces *exactly* to the engine's
  FIFO pass (pinned by the engine-equivalence tests).
* **Processor quotas.**  A tenant's ``max_running_procs`` caps the
  allocation of each of its tasks, and a task whose start would push
  its tenant past the quota stays queued without blocking tasks of
  other tenants behind it.

Retries follow ``RetryPolicy(max_attempts=fault_max_attempts,
backoff_base=fault_backoff)``; a task whose budget is spent evicts its
session (``RETRY_EXHAUSTED``).  The loop's
:class:`~repro.sim.feasibility.InvariantChecker` cross-checks every
transition (task identities are scoped to a session: a tenant's tasks are
forgotten when its run finishes or is cancelled), and
:meth:`SharedPool.check_conservation` verifies processor conservation
(free + down + owned = P, pairwise disjoint) after every mutation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping

from repro.core.allocator import LpaAllocator
from repro.exceptions import InvalidParameterError, ServiceError, SimulationError
from repro.obs.events import QueueSampled, SimEvent
from repro.resilience.retry import RetryPolicy
from repro.service.config import ServiceConfig, TenantQuota
from repro.sim.allocation import Allocator
from repro.sim.engine import SlotLoop
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
        return asdict(self)


@dataclass
class PoolTask:
    """One tenant task tracked by the pool across its whole lifecycle."""

    tenant: str
    task_id: str
    model: SpeedupModel
    #: The task's slot in the pool's loop.
    slot: int = -1
    #: Processor quota of the tenant (``P`` without one).
    limit: int = 0
    #: ``blocked`` (predecessors unfinished) -> ``queued`` -> ``running``
    #: -> ``done``; a killed attempt is ``killed`` until its retry is
    #: queued; ``cancelled`` is terminal from any live state.
    state: str = "blocked"
    waiting_on: set[str] = field(default_factory=set)
    successors: list[str] = field(default_factory=list)
    attempt: int = 1
    start: float = -1.0
    end: float = -1.0
    procs: int = 0
    #: Processor ids of the running attempt (empty when not running).
    proc_ids: tuple[int, ...] = ()
    #: Composite id used in obs events and the invariant checker.
    id: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.id = f"{self.tenant}/{self.task_id}"


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


#: (tenant, response-shaped payload) routed to sessions by the server.
Notification = tuple[str, dict[str, object]]


def _arrival(task: object, alloc: object) -> int:
    """Constant priority rule: queue entries carry their arrival seq."""
    return 0


class SharedPool(SlotLoop):
    """Deterministic multi-tenant list scheduler over ``P`` processors.

    The pool is the engine's slot loop, driven one mutation at a time and
    run under its own :class:`~repro.sim.engine.Tenancy`: ``tasks[slot]``
    is the :class:`PoolTask` of every task ever submitted.
    """

    tasks: list[PoolTask]
    checker: InvariantChecker

    def __init__(
        self,
        config: ServiceConfig,
        *,
        allocator: Allocator | None = None,
        emit: _Emit | None = None,
    ) -> None:
        super().__init__(
            config.P,
            allocator if allocator is not None else LpaAllocator(config.effective_mu),
            [],
            priority=_arrival,
            tracking=True,
            retry=RetryPolicy(
                max_attempts=config.fault_max_attempts, backoff_base=config.fault_backoff
            ),
            record=False,
            checker=InvariantChecker(config.P),
            emit=emit,
            tenancy=self,
        )
        self.config = config
        self.tenants: dict[str, TenantRun] = {}
        self.stats = PoolStats()
        #: seq -> attempt of a killed attempt whose completion is still
        #: on the heap (the state digest lists every heap event).
        self._killed: dict[int, int] = {}
        #: Active tenant -> its session deadline, for the tenants that set
        #: one: the only ones the per-instant deadline check visits.
        self._deadlines: dict[str, float] = {}

    @property
    def proc_owner(self) -> dict[int, tuple[str, str]]:
        """processor -> (tenant, task_id) of the attempt occupying it."""
        tasks = self.tasks
        return {
            q: (tasks[event[2]].tenant, tasks[event[2]].task_id)
            for q, event in self.owner.items()
        }

    # ------------------------------------------------------------------
    # Tenancy: the policies the loop runs under
    # ------------------------------------------------------------------
    def limit(self, slot: int) -> int:
        return self.tasks[slot].limit

    def hold(self, slot: int, procs: int) -> bool:
        task = self.tasks[slot]
        return self.tenants[task.tenant].running_procs + procs > task.limit

    def pass_key(self, entry: tuple[Any, ...]) -> tuple[int, int]:
        task = self.tasks[entry[1]]
        return (self.tenants[task.tenant].running_procs, entry[0][1])

    def on_start(self, event: tuple[Any, ...], ids: tuple[int, ...]) -> None:
        end, _, slot, procs, start, _ = event
        task = self.tasks[slot]
        task.state = "running"
        task.start = start
        task.end = end
        task.procs = procs
        task.proc_ids = ids
        self.tenants[task.tenant].running_procs += procs
        self.stats.started += 1

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
        if run.deadline is not None:
            self._deadlines[tenant] = run.deadline
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
        limit = run.quota.max_running_procs
        task = PoolTask(tenant, task_id, model, len(self.tasks), limit or self.P)
        for dep in deps:
            pred = run.tasks.get(dep)
            if pred is None:
                raise ServiceError(
                    f"task {task_id!r} depends on unknown task {dep!r}"
                )
            if pred.state != "done":
                task.waiting_on.add(dep)
                pred.successors.append(task_id)
        self.tasks.append(task)
        run.tasks[task_id] = task
        run.inflight += 1
        self.stats.submitted += 1
        if not task.waiting_on:
            task.state = "queued"
            self.admit([task.slot])
            self.start_fitting()
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
        self._deadlines.pop(run.tenant, None)
        self.checker.forget(task.id for task in run.tasks.values())

    def _graph_done_payload(self, run: TenantRun) -> dict[str, object]:
        ends = (t.end for t in run.tasks.values() if t.state == "done")
        makespan = max(ends, default=run.t0) - run.t0
        return {"event": "graph-done", "makespan": makespan, "tasks": run.completed}

    def cancel_tenant(self, tenant: str, reason: str) -> None:
        """Terminate a tenant: kill running attempts, drop queued work.

        Every processor the tenant occupied returns to the free set — the
        capacity-conservation guarantee cancellation tests pin.
        """
        run = self.tenants[tenant]
        if not run.active:
            return
        self.cancel([task.slot for task in run.tasks.values()])
        for task in run.tasks.values():
            if task.state in ("blocked", "queued", "running", "killed"):
                task.state = "cancelled"
                task.proc_ids = ()
        self._finish(run, "cancelled")
        run.reason = reason
        run.inflight = 0
        run.running_procs = 0
        self.stats.cancelled += 1
        self.start_fitting()  # released capacity may start other tenants' work
        self._sample()

    def fault(self, kind: str, proc: int) -> list[Notification]:
        """Apply one processor fault event (``fail`` / ``recover``)."""
        if kind not in ("fail", "recover"):
            raise ServiceError(f"unknown fault kind {kind!r}")
        victim = None
        try:  # the loop validates before any effect
            if kind == "fail":
                victim = self.fail(proc)
            else:
                self.recover(proc)
        except (InvalidParameterError, SimulationError) as exc:
            raise ServiceError(str(exc)) from exc
        notes: list[Notification] = [] if victim is None else self._killed_attempt(victim)
        self.capacity_changed()
        self.start_fitting()
        self._sample()
        self.check_conservation()
        return notes

    def tick(self, max_events: int) -> list[Notification]:
        """Advance virtual time through up to ``max_events`` heap events.

        Processes whole instants in the engine's order — completions,
        then the successors they reveal, then due retries, then one
        fair-share queue pass — and then enforces virtual-time session
        deadlines.  Every event popped counts against the budget, the
        stale completion of a killed attempt or a cancelled session's
        included.  Returns notifications (task/graph completions,
        evictions) for the server to route.
        """
        notes: list[Notification] = []
        self.stats.ticks += 1
        tasks = self.tasks
        processed = 0
        while (self.events or self.delayed) and processed < max_events:
            done, due = self.pop_instant()
            processed += len(done) + len(due)
            revealed: list[int] = []
            for event in done:
                self._killed.pop(event[1], None)
                if self.complete(event):
                    notes.extend(self._completed(tasks[event[2]], revealed))
            if revealed:
                self.admit(revealed)
            for slot in due:
                if tasks[slot].state == "killed":  # not cancelled meanwhile
                    tasks[slot].state = "queued"
                    self.requeue(slot)
            self.start_fitting()
            notes.extend(self._check_deadlines())
            self._sample()
        self.check_conservation()
        return notes

    # ------------------------------------------------------------------
    # Tenant bookkeeping of the loop's transitions
    # ------------------------------------------------------------------
    def _completed(self, task: PoolTask, revealed: list[int]) -> list[Notification]:
        """A task finished: account it, collect the successors it made ready."""
        run = self.tenants[task.tenant]
        task.state = "done"
        task.proc_ids = ()
        run.running_procs -= task.procs
        run.inflight -= 1
        run.completed += 1
        self.stats.completed += 1
        done = {"event": "task-done", "task": task.task_id, "start": task.start,
                "end": task.end, "procs": task.procs}
        notes: list[Notification] = [(run.tenant, done)]
        for succ_id in task.successors:
            succ = run.tasks[succ_id]
            if succ.state != "blocked":
                continue
            succ.waiting_on.discard(task.task_id)
            if not succ.waiting_on:
                succ.state = "queued"
                revealed.append(succ.slot)
        if run.is_drained():
            self._finish(run, "finished")
            notes.append((run.tenant, self._graph_done_payload(run)))
        return notes

    def _killed_attempt(self, event: tuple[Any, ...]) -> list[Notification]:
        """A fault killed a running attempt: account it, retry or evict."""
        task = self.tasks[event[2]]
        run = self.tenants[task.tenant]
        killed_attempt = task.attempt
        self._killed[event[1]] = killed_attempt
        run.running_procs -= task.procs
        self.stats.killed += 1
        task.state = "killed"
        task.procs = 0
        task.proc_ids = ()
        notes: list[Notification] = [
            (task.tenant, {"event": "task-killed", "task": task.task_id, "attempt": killed_attempt})
        ]
        delay = self.retry(event)
        if delay is None:
            message = (f"task {task.task_id!r} killed {killed_attempt} times "
                       f"(fault_max_attempts={self.config.fault_max_attempts})")
            return notes + self._evict(run, "RETRY_EXHAUSTED", message)
        task.attempt = killed_attempt + 1
        if delay <= 0:
            task.state = "queued"
        return notes

    def _evict(self, run: TenantRun, reason: str, message: str) -> list[Notification]:
        self.cancel_tenant(run.tenant, reason)
        return [(run.tenant, {"event": "evicted", "reason": reason, "message": message})]

    def _check_deadlines(self) -> list[Notification]:
        notes: list[Notification] = []
        now = self.now
        # Name order fixes the order of the eviction notes.
        for tenant, deadline in sorted(self._deadlines.items()):
            if now >= deadline:
                run = self.tenants[tenant]
                message = f"session deadline {deadline - run.t0:.6g} overran at t={now:.6g}"
                notes.extend(self._evict(run, "DEADLINE_EXCEEDED", message))
        return notes

    def _sample(self) -> None:
        """End of a mutation step: sync the decision counter, sample the queue."""
        self.stats.decisions = self.n_admitted + self.n_reallocs
        if self.emit is not None:
            self.emit(QueueSampled(self.now, len(self.queue), len(self.free_set)))

    # ------------------------------------------------------------------
    # Introspection & invariants
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        return len(self.queue)

    def has_pending_events(self) -> bool:
        return bool(self.events or self.delayed)

    def idle(self) -> bool:
        """No queued work and no future events: ticking is a no-op."""
        return not self.has_pending_events() and not self.queue

    def active_tenants(self) -> int:
        return sum(1 for run in self.tenants.values() if run.active)

    def check_conservation(self) -> None:
        """Processor conservation: free + down + owned = P, disjoint.

        Raises :class:`~repro.exceptions.SimulationError` on any leak —
        the chaos harness calls this after every injected disturbance.
        """
        free, down = self.free_set, self.down
        owned = self.owner.keys()
        if free & owned or free & down or owned & down:
            raise SimulationError(
                f"processor sets overlap: free={sorted(free)} "
                f"owned={sorted(owned)} down={sorted(down)}"
            )
        total = len(free) + len(owned) + len(down)
        if total != self.P:
            raise SimulationError(
                f"processor leak: {len(free)} free + {len(owned)} owned "
                f"+ {len(down)} down != P={self.P}"
            )
        if self.capacity != self.P - len(down):
            raise SimulationError(
                f"capacity {self.capacity} disagrees with P - down = "
                f"{self.P - len(down)}"
            )
        running_by_tenant: dict[str, int] = {}
        for event in self.owner.values():
            tenant = self.tasks[event[2]].tenant
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
        processor sets, queue, event heaps, and per-tenant task states.
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
        tasks = self.tasks
        events = [
            [end, seq, "complete", tasks[slot].tenant, tasks[slot].task_id,
             self._killed.get(seq, tasks[slot].attempt)]
            for end, seq, slot, *_ in self.events
        ] + [
            [due, seq, "retry", tasks[slot].tenant, tasks[slot].task_id, tasks[slot].attempt]
            for due, seq, slot in self.delayed
        ]
        return {
            "now": self.now,
            "capacity": self.capacity,
            "free": sorted(self.free_set),
            "down": sorted(self.down),
            "owner": {str(q): list(v) for q, v in sorted(self.proc_owner.items())},
            "queue": [
                [tasks[e[1]].tenant, tasks[e[1]].task_id, e[2], e[0][1], tasks[e[1]].attempt]
                for e in sorted(self.queue, key=lambda entry: entry[0][1])
            ],
            "events": sorted(events),
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
            "pending_events": len(self.events) + len(self.delayed),
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
