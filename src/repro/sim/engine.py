"""Event-driven list-scheduling engine (the loop of Algorithm 1).

The engine is shared by the paper's algorithm and every baseline: what
varies is only the :class:`~repro.core.allocator.Allocator` deciding each
task's processor count, and optionally a priority rule for the waiting
queue (the paper inserts tasks "without any priority considerations", i.e.
FIFO, which is the default).

At time 0 and at every task completion the engine

1. asks the graph source for newly available tasks,
2. fixes each new task's allocation via the allocator,
3. appends the tasks to the waiting queue,
4. scans the queue in order, starting every task that fits in the free
   processors (list scheduling, lines 7-11 of Algorithm 1).

The loop's state and transitions live in one core, :class:`SlotLoop`,
with two drivers: :meth:`ListScheduler.run` runs a loop to exhaustion
over a graph, and the scheduler service's
:class:`~repro.service.pool.SharedPool` is a loop driven one mutation at
a time under a multi-tenant :class:`Tenancy`.

One loop implements this with a *provably transparent* fast path (see
``docs/performance.md``).  It runs in integer slot space: a slot view
(:func:`~repro.sim.sources.slot_view`) numbers the tasks and groups them
by model object, from arrays compiled once per graph version
(:meth:`~repro.graph.taskgraph.TaskGraph.compiled`) for static graphs.
Each model group is resolved once per run into an (allocation, duration)
pair, through the allocator's memoizing entry point
(:meth:`~repro.sim.allocation.Allocator.allocate_cached`) or from a
run-local table of the ``cache_key`` values already seen; queue passes
that cannot start anything are skipped via a lower bound on the minimum
waiting demand; priority queues are maintained by sorted insertion
instead of per-admit re-sorts; and the :class:`~repro.sim.schedule.Schedule`
is built once, after the loop.  Schedules are bit-identical to the naive
full-rescan loop; :class:`EngineStats` (attached to every
:class:`SimulationResult`, summed into ``engine.*`` counters of the
ambient :class:`~repro.obs.metrics.MetricsRegistry`) counts
events, scans, scan steps, and allocator cache traffic (a reveal-table
hit counts as the cache hit it replaces) to prove it cheaply.

Beyond the paper's fault-free platform, the same loop runs *processor
faults* (``faults=``): a fault model (:mod:`repro.resilience.faults`)
emits a timeline of fail/recover events for individual processors, a
failure kills the attempt running on the victim processor, and the task
is re-queued under a retry policy (:mod:`repro.resilience.retry`), at
once or from a backoff heap read like timed releases.  The allocator is
re-consulted with the *live* capacity :math:`P_t`, so the paper's
:math:`\\lceil\\mu P\\rceil` cap tracks the shrinking (and recovering)
platform: after a capacity change the next queue pass is exhaustive and
re-caps, in queue order, every entry allocated for another capacity.  A
fault-free run is the same loop with an empty timeline and schedules
exactly like a run given an empty trace; a fault run (``faults`` or
``retry`` given) also packs attempts onto the lowest free processor
indices and records every attempt and capacity step.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from collections import deque
from collections.abc import MutableSequence, Sequence
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol

if TYPE_CHECKING:  # layering: sim only duck-types resilience at runtime
    from repro.resilience.faults import FaultModel
    from repro.resilience.retry import RetryPolicy
    from repro.speedup.base import SpeedupModel

from repro.exceptions import (
    InvalidParameterError,
    ScheduleError,
    SimulationError,
    TaskAbortedError,
)
from repro.obs.events import (
    AllocationDecided,
    CapacityChanged,
    FaultInjected,
    QueueSampled,
    RetryScheduled,
    SimEvent,
    TaskCompleted,
    TaskRevealed,
    TaskStarted,
    Tracer,
    active_tracer,
)
from repro.obs.metrics import active_metrics
from repro.sim.allocation import Allocation, AllocationCacheInfo, Allocator
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.feasibility import InvariantChecker
from repro.sim.schedule import Schedule, ScheduledTask
from repro.sim.sources import (
    GraphSource,
    NumberedSlots,
    Resolved,
    StaticGraphSource,
    slot_view,
)
from repro.types import TaskId, Time
from repro.util.validation import check_positive_int

__all__ = [
    "ListScheduler",
    "SlotLoop",
    "SimulationResult",
    "AttemptRecord",
    "EngineStats",
]

#: Type of the engine's internal emission hook: ``None`` when tracing is
#: off (the fast path pays one ``is not None`` test per site), otherwise
#: the active tracer's bound ``emit``.
_Emit = Callable[[SimEvent], None]


@dataclass
class EngineStats:
    """Performance counters of one engine run (pure observability).

    The counters measure *work done by the simulator*, not properties of
    the schedule: identical schedules produced by different engine versions
    may report different stats.  ``queue_scans`` counts :func:`start_fitting`
    passes that actually walked the waiting queue; ``scans_skipped`` counts
    passes proven unnecessary by the min-demand bound (no waiting task can
    fit in the free processors); ``scan_steps`` is the total number of queue
    entries examined, the quantity the incremental fast path keeps near
    linear in the task count.  Allocator-cache counters are diffs of the
    allocator's cumulative :meth:`~repro.sim.allocation.Allocator.cache_info`
    taken across the run.
    """

    #: Discrete event instants the main loop processed.
    events: int = 0
    #: Task attempts started.
    tasks_started: int = 0
    #: Waiting-queue passes that examined at least one entry.
    queue_scans: int = 0
    #: Passes skipped outright because ``free < min waiting demand``.
    scans_skipped: int = 0
    #: Total queue entries examined across all passes.
    scan_steps: int = 0
    #: Allocator consultations (reveals plus resilient re-allocations).
    allocator_calls: int = 0
    #: Allocations served from the allocator's memoization cache.
    alloc_cache_hits: int = 0
    #: Allocations computed and stored in the cache.
    alloc_cache_misses: int = 0
    #: Allocations that bypassed the cache (unhashable model, ...).
    alloc_cache_bypasses: int = 0

    def alloc_cache_hit_rate(self) -> float:
        """Fraction of allocator calls served from the cache (0.0 if none)."""
        total = self.alloc_cache_hits + self.alloc_cache_misses + self.alloc_cache_bypasses
        if total == 0:
            return 0.0
        return self.alloc_cache_hits / total

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (JSON-safe) including the derived hit rate."""
        payload: dict[str, float] = asdict(self)
        payload["alloc_cache_hit_rate"] = round(self.alloc_cache_hit_rate(), 4)
        return payload

    def summary(self) -> str:
        """Human-readable one-block summary (used by the ``--profile`` flag)."""
        return (
            f"engine stats: {self.events} events | {self.tasks_started} tasks started\n"
            f"queue: {self.queue_scans} scans ({self.scans_skipped} skipped), "
            f"{self.scan_steps} scan steps\n"
            f"allocator: {self.allocator_calls} calls, "
            f"{self.alloc_cache_hits} cache hits / {self.alloc_cache_misses} misses / "
            f"{self.alloc_cache_bypasses} bypasses "
            f"({self.alloc_cache_hit_rate():.1%} hit rate)"
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "EngineStats":
        """Inverse of :meth:`as_dict` (derived fields are recomputed)."""
        return cls(**{f.name: int(payload.get(f.name, 0)) for f in fields(cls)})


#: Optional priority key: smaller keys run earlier in the waiting queue.
PriorityRule = Callable[[Task, Allocation], object]


@dataclass(frozen=True)
class AttemptRecord:
    """One execution attempt of a task (telemetry of fault-injected runs).

    ``completed=False`` marks an attempt killed mid-run by a processor
    failure; its ``end`` is the kill instant.  ``proc_ids`` are the
    concrete processor indices the attempt occupied (empty for runs that
    do not track identities).
    """

    task_id: TaskId
    attempt: int
    start: Time
    end: Time
    procs: int
    completed: bool
    proc_ids: tuple[int, ...] = ()

    @property
    def duration(self) -> Time:
        return self.end - self.start

    @property
    def area(self) -> float:
        """Processor-time product consumed by this attempt."""
        return self.procs * self.duration


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one scheduling run."""

    schedule: Schedule
    allocations: dict[TaskId, Allocation]
    graph: TaskGraph
    #: Simulated instant each task became available to the scheduler
    #: (empty for schedulers that do not record it).
    revealed_at: dict[TaskId, Time] = field(default_factory=dict)
    #: Every execution attempt, including ones killed by processor faults
    #: (empty for fault-free runs, which execute each task exactly once).
    attempt_log: tuple[AttemptRecord, ...] = ()
    #: Piecewise-constant live capacity ``[(time, P_t), ...]`` (empty for
    #: fault-free runs, where capacity is the constant ``P``).
    capacity_timeline: tuple[tuple[Time, int], ...] = ()
    #: Engine performance counters (``None`` for results built by
    #: schedulers that do not run the event-driven engine).
    stats: EngineStats | None = None

    @property
    def makespan(self) -> Time:
        """Overall completion time of the run."""
        return self.schedule.makespan()

    def waiting_times(self) -> dict[TaskId, Time]:
        """Per-task queueing delay: start time minus reveal time.

        Only defined when the engine recorded reveal instants.
        """
        return {
            task_id: self.schedule[task_id].start - revealed
            for task_id, revealed in self.revealed_at.items()
        }

    # -- failure telemetry ---------------------------------------------
    def attempt_counts(self) -> dict[TaskId, int]:
        """Engine-level attempts per task (1 for every fault-free task)."""
        if not self.attempt_log:
            return {entry.task_id: 1 for entry in self.schedule}
        counts: dict[TaskId, int] = {}
        for record in self.attempt_log:
            counts[record.task_id] = max(counts.get(record.task_id, 0), record.attempt)
        return counts

    def killed_attempts(self) -> int:
        """Number of attempts killed by processor failures."""
        return sum(1 for record in self.attempt_log if not record.completed)

    def wasted_work(self) -> float:
        """Total processor-time area consumed by killed attempts.

        With checkpoint/restart retries part of this area is *not* redone
        (the retry carries only the remaining work), but it was still
        burned on the platform, which is what this metric measures.
        """
        return sum(record.area for record in self.attempt_log if not record.completed)

    def min_capacity(self) -> int:
        """Smallest live capacity reached during the run (``P`` if fault-free)."""
        if not self.capacity_timeline:
            return self.schedule.P
        return min(capacity for _, capacity in self.capacity_timeline)


#: Waiting-queue entry: ``(sort_key, slot, procs, duration, allocation,
#: queued_at, cap)``.  ``sort_key`` is ``None`` under FIFO and
#: ``(priority, seq)`` under a priority rule; ``procs`` is
#: ``allocation.final``, ``duration`` the attempt's time on it, ``queued_at``
#: the reveal (or re-allocation) instant and ``cap`` the allocation cap
#: (live capacity, or a lower tenant quota) it was made for.
_Entry = tuple[object, int, int, Time, Allocation, Time, int]
#: A started attempt: ``(end, seq, slot, procs, start, allocation)``.
_Started = tuple[Time, int, int, int, Time, Allocation]


def _entry_key(entry: tuple) -> object:
    """Sort key of a plain-path queue entry (its precomputed first slot)."""
    return entry[0]


class Tenancy(Protocol):
    """Multi-tenant policy a tracking :class:`SlotLoop` runs under (the service pool)."""

    def limit(self, slot: int) -> int:
        """Processor quota of the slot's tenant (``P`` without one)."""

    def hold(self, slot: int, procs: int) -> bool:
        """Whether a slot that fits the free processors must still wait."""

    def pass_key(self, entry: _Entry) -> object:
        """Sort key of ``entry`` in the next queue pass."""

    def on_start(self, event: _Started, ids: tuple[int, ...]) -> None:
        """Bookkeeping of an attempt just started on processors ``ids``."""


def _cache_status(
    before: AllocationCacheInfo | None, after: AllocationCacheInfo | None
) -> str:
    """Classify one allocator call from its cache-counter deltas."""
    if before is None or after is None:
        return "unknown"
    if after.hits > before.hits:
        return "hit"
    if after.misses > before.misses:
        return "miss"
    if after.bypasses > before.bypasses:
        return "bypass"
    return "unknown"


def _allocation_event(
    allocator: Allocator,
    model: SpeedupModel | None,
    alloc: Allocation,
    capacity: int,
    now: Time,
    task_id: TaskId,
    cache: str,
    attempt: int = 1,
) -> AllocationDecided:
    """Build the traced explanation of one Algorithm-2 decision.

    Only called when tracing is enabled, so the extra model queries behind
    :meth:`~repro.core.allocator.LpaAllocator.explain` (the paper's
    :math:`\\alpha_p`/:math:`\\beta_p` ratios) never touch the fast path.
    Allocators without ratio semantics yield ``alpha = beta = None``.
    """
    alpha: float | None = None
    beta: float | None = None
    explain = getattr(allocator, "explain", None)
    if model is not None and callable(explain):
        detail = explain(model, capacity)
        alpha = detail.alpha
        beta = detail.beta
    return AllocationDecided(
        now, task_id, alloc.initial, alloc.final, capacity,
        alloc.final < alloc.initial, cache, alpha, beta, attempt,
    )


class SlotLoop:
    """State and transitions of Algorithm 1 over integer task slots.

    The loop owns the waiting queue, the free-processor counter and the
    completion and retry-backoff heaps.  A driver sets :attr:`now` to
    each event instant and runs the transitions in the instant order of
    ``docs/resilience.md``: completions, faults (:meth:`fail`,
    :meth:`recover`), reveals (:meth:`admit`), due retries
    (:meth:`requeue`), one pass (:meth:`start_fitting`).
    :meth:`ListScheduler.run` drives a loop to exhaustion over a graph;
    :class:`~repro.service.pool.SharedPool` drives one a mutation at a
    time, under a :class:`Tenancy`.

    ``tasks[slot]`` (anything with ``id`` and ``model``) is the task
    behind a slot, ``groups``/``resolved`` the slot view's reveal table.
    A *tracking* loop packs attempts onto the lowest free processor
    indices and takes faults under the ``retry`` policy.  With
    ``record=False`` the result logs are zero-length deques, which
    discard what is appended: a long-running driver reads the loop's
    state, not a result.
    """

    __slots__ = (
        "P", "allocator", "tasks", "groups", "resolved", "priority", "tracking",
        "retry_policy", "checker", "emit", "tenancy", "now", "free", "capacity",
        "queue", "events", "delayed", "seq", "min_demand", "down", "free_set",
        "owner", "running", "retries", "realloc", "record", "revealed_log", "started",
        "finished", "attempt_log", "capacity_log", "n_admitted", "n_reallocs",
        "queue_scans", "scans_skipped", "scan_steps", "allocate_task",
        "allocate_keyed", "allocate_model", "use_task_alloc", "use_table", "keyed",
        "cache_info", "cache_info0", "observed",
    )

    def __init__(
        self,
        P: int,
        allocator: Allocator,
        tasks: Sequence[Any],
        groups: Sequence[int] = (),
        resolved: list[Resolved | None] | None = None,
        *,
        priority: Callable[[Any, Allocation], object] | None = None,
        tracking: bool = False,
        retry: RetryPolicy | None = None,
        record: bool = True,
        checker: InvariantChecker | None = None,
        emit: _Emit | None = None,
        tenancy: Tenancy | None = None,
    ) -> None:
        self.P = P
        self.allocator = allocator
        self.tasks = tasks
        self.groups = groups
        self.resolved: list[Resolved | None] = [] if resolved is None else resolved
        self.priority = priority
        self.tracking = tracking
        self.retry_policy = retry
        self.checker = checker
        self.emit = emit
        self.tenancy = tenancy
        self.now: Time = 0.0
        self.free = self.capacity = P
        self.queue: list[_Entry] = []
        # The completion heap holds start tuples (``seq`` is unique, so
        # heap comparisons never look past it); the backoff heap holds
        # ``(due, seq, slot)`` and is read like timed releases.
        self.events: list[_Started] = []
        self.delayed: list[tuple[Time, int, int]] = []
        self.seq = itertools.count()
        # Lower bound on the smallest processor demand among waiting tasks
        # (inf for an empty queue).  The bound lets a pass be *proved*
        # useless (free < bound => nothing fits) and lets passes exit
        # early once the free count drops below it; it is exact after any
        # pass that examined the whole queue and merely conservative
        # (never unsound) otherwise, so schedules are identical to full
        # rescans.  A capacity change resets it to 0: the next pass
        # re-caps the queue and must see every entry.
        self.min_demand: float = math.inf
        # Processor identities (tracking loops): running attempts by
        # processor and by seq.  A killed attempt leaves ``running``; its
        # completion stays on the heap and is skipped.
        self.down: set[int] = set()
        self.free_set: set[int] = set(range(P)) if tracking else set()
        self.owner: dict[int, _Started] = {}
        self.running: dict[int, tuple[int, ...]] = {}
        # slot -> (attempt, model) of a retried task's current attempt
        # (absent: attempt 1 on ``task.model``); residual models carry
        # checkpointed work.
        self.retries: dict[int, tuple[int, SpeedupModel]] = {}
        # Result logs: slot -> latest re-allocation, first-attempt entries
        # in reveal order, starts in start order, completed starts,
        # attempts, capacity steps.
        self.realloc: dict[int, Allocation] = {}
        self.record = record
        log: Callable[[], MutableSequence[Any]] = list if record else partial(deque, maxlen=0)
        self.revealed_log: MutableSequence[_Entry] = log()
        self.started: MutableSequence[_Started] = log()
        self.finished: MutableSequence[_Started] = log()
        self.attempt_log: MutableSequence[AttemptRecord] = log()
        self.capacity_log: MutableSequence[tuple[Time, int]] = log()
        if tracking:
            self.capacity_log.append((0.0, P))
        self.n_admitted = self.n_reallocs = 0
        self.queue_scans = self.scans_skipped = self.scan_steps = 0
        # Task-aware allocators (e.g. fixed per-task allotments) expose
        # `allocate_task`; plain allocators only see the speedup model
        # (routed through the memoizing entry point when available).
        self.allocate_task = getattr(allocator, "allocate_task", None)
        self.allocate_keyed = getattr(allocator, "allocate_keyed", None)
        allocate_model = getattr(allocator, "allocate_cached", None)
        self.allocate_model = allocate_model if callable(allocate_model) else allocator.allocate
        self.use_task_alloc = callable(self.allocate_task)
        # Reveal table: ``resolved[group]`` is the (allocation, procs,
        # duration) of a model group, filled on the group's first reveal
        # and read by every later task of the group.  ``keyed`` maps each
        # cache_key to the first group that carried it, so distinct model
        # objects with equal keys share one allocator consultation.  Equal
        # keys mean the same time function (the cache_key contract), so the
        # table is transparent.  It is off exactly where the LRU would be
        # bypassed for every task, and it holds decisions at P only.
        self.use_table = callable(self.allocate_keyed) and not (
            self.use_task_alloc
            or getattr(allocator, "uses_free", False)
            or getattr(allocator, "cache_maxsize", 0) <= 0
        )
        self.keyed: dict[object, int] = {}
        cache_info = getattr(allocator, "cache_info", None)
        self.cache_info = cache_info if callable(cache_info) else None
        self.cache_info0 = self.cache_info() if self.cache_info is not None else None
        # Reveals, starts and completions call out only when someone
        # observes them (the invariant checker or a tracer).
        self.observed = checker is not None or emit is not None

    # ------------------------------------------------------------------
    # Allocation and reveal
    # ------------------------------------------------------------------
    def slot_cap(self, slot: int) -> int:
        """Live allocation cap of ``slot``: ``P_t``, or its tenant's quota if lower."""
        if self.tenancy is None:
            return self.capacity
        return min(self.capacity, self.tenancy.limit(slot))

    def consult(self, slot: int, model: SpeedupModel, cap: int, key: object
                ) -> tuple[Resolved, str]:
        """One allocator call at allocation cap ``cap``, with its cache outcome.

        ``key`` is ``model.cache_key()`` when the reveal table is on.
        """
        # Tracing reads the cache counters around the call to classify
        # it (hit/miss/bypass); pure observation, the allocation itself
        # is untouched.
        cache_info = self.cache_info
        before = cache_info() if self.emit is not None and cache_info is not None else None
        if self.use_table:
            alloc = self.allocate_keyed(model, key, cap, self.free)
        elif self.use_task_alloc:
            alloc = self.allocate_task(self.tasks[slot], cap, free=self.free)
        else:
            alloc = self.allocate_model(model, cap, free=self.free)
        res = self.resolve(slot, model, alloc, cap)
        if before is None or cache_info is None:
            return res, "unknown"
        return res, _cache_status(before, cache_info())

    def resolve(self, slot: int, model: SpeedupModel, alloc: Allocation, cap: int) -> Resolved:
        """Check ``alloc`` against cap ``cap``; return it with its procs and duration."""
        final = alloc.final
        if not 1 <= final <= cap:
            raise SimulationError(
                f"allocator returned infeasible allocation {alloc} for task "
                f"{self.tasks[slot].id!r} on live capacity P_t={cap}"
            )
        return (alloc, final, model.time(final))

    def admit(self, slots: list[int]) -> None:
        """Reveal ``slots`` at :attr:`now`: fix each allocation, queue each task."""
        resolved, groups = self.resolved, self.groups
        queue, priority = self.queue, self.priority
        now = self.now
        cap = capacity = self.capacity
        min_demand = self.min_demand
        observed = self.observed
        log = self.revealed_log.append
        # The table holds decisions at P: below it, or under a tenant's
        # quota, the allocator is consulted at the slot's live cap (1
        # while the whole platform is down; the entry is re-capped on
        # recovery).
        direct = capacity == self.P and self.tenancy is None
        # An untraced miss has no cache outcome to classify, so it calls
        # the allocator's keyed entry point and checks the allocation
        # inline, without consult()'s wrapping.
        keyed_miss = self.use_table and self.emit is None
        entry: _Entry
        res: Resolved | None
        for slot in slots:
            if not direct:
                model = self.tasks[slot].model
                cap = self.slot_cap(slot)
                res, cache = self.consult(
                    slot, model, max(cap, 1), model.cache_key() if self.use_table else None
                )
            elif (res := resolved[groups[slot]]) is not None:
                # A table hit is the LRU hit it replaces: cache_info()
                # and EngineStats count it as one.
                self.allocator._cache_hits += 1
                cache = "hit"
            else:
                model = self.tasks[slot].model
                group = groups[slot]
                key = None
                if self.use_table:
                    # The group's first reveal (or any reveal of a
                    # keyless group): another model object with an
                    # equal key may have been resolved already.  A key
                    # maps to the first group that carried it, so one
                    # hash both looks it up and claims it.
                    key = model.cache_key()
                    if key is not None:
                        try:
                            first = self.keyed.setdefault(key, group)
                        except TypeError:  # unhashable key: the LRU bypasses too
                            key = None
                        else:
                            if first != group:
                                res = resolved[first]
                if res is not None:
                    self.allocator._cache_hits += 1
                    cache = "hit"
                elif keyed_miss:
                    alloc = self.allocate_keyed(model, key, capacity, self.free)
                    final = alloc.final
                    if not 1 <= final <= capacity:
                        self.resolve(slot, model, alloc, capacity)  # raises
                    res = (alloc, final, model.time(final))
                    cache = "unknown"
                else:
                    res, cache = self.consult(slot, model, capacity, key)
                if key is not None:
                    resolved[group] = res
            alloc, final, duration = res
            if observed:
                self.observe_reveal(slot, alloc, cache)
            if final < min_demand:
                min_demand = final
            if priority is None:
                # FIFO skips the seq draw: admit-side seq values never
                # enter the event heap, and the heap's tie-break only
                # needs event seqs to be strictly increasing (which
                # they remain), so the schedule is unchanged.
                entry = (None, slot, final, duration, alloc, now, cap)
                queue.append(entry)
            else:
                # Sorted insertion replaces per-admit full sorts:
                # allocations and priorities only move in a re-cap
                # pass, which re-sorts, so inserting by the precomputed
                # (priority, seq) key reproduces repeated stable sorts
                # exactly.
                order = (priority(self.tasks[slot], alloc), next(self.seq))
                entry = (order, slot, final, duration, alloc, now, cap)
                insort(queue, entry, key=_entry_key)
            log(entry)
        self.min_demand = min_demand
        self.n_admitted += len(slots)

    def reallocate(self, slot: int, order: object) -> _Entry:
        """Queue entry of a queued or retried task, allocated at its live cap.

        ``order`` is the entry's seq under a priority rule (its priority
        is recomputed for the new allocation) and ``None`` under FIFO.
        """
        self.n_reallocs += 1
        attempt, model = self.retries.get(slot, (1, self.tasks[slot].model))
        raw = self.slot_cap(slot)
        cap = max(raw, 1)  # provisional while the whole platform is down
        key = model.cache_key() if self.use_table else None
        (alloc, final, duration), cache = self.consult(slot, model, cap, key)
        if self.record:
            self.realloc[slot] = alloc
        task_id = self.tasks[slot].id
        if self.emit is not None:
            model_seen = None if self.use_task_alloc else model
            self.emit(_allocation_event(
                self.allocator, model_seen, alloc, cap, self.now, task_id, cache, attempt
            ))
        priority = self.priority
        order = None if priority is None else (priority(self.tasks[slot], alloc), order)
        return (order, slot, final, duration, alloc, self.now, raw)

    def requeue(self, slot: int) -> None:
        """Queue the next attempt of a killed task."""
        entry = self.reallocate(slot, None if self.priority is None else next(self.seq))
        if self.priority is None:
            self.queue.append(entry)
        else:
            insort(self.queue, entry, key=_entry_key)
        if entry[2] < self.min_demand:
            self.min_demand = entry[2]

    def start_fitting(self) -> None:
        """One queue pass (lines 7-11 of Algorithm 1): start every task that fits."""
        queue = self.queue
        if not queue:
            return
        # The free counter, the bound and the queue stay in locals for
        # the length of the pass.
        free = self.free
        min_demand = self.min_demand
        if free < min_demand:
            self.scans_skipped += 1
            return
        self.queue_scans += 1
        hold = None
        tenancy = self.tenancy
        if tenancy is not None:
            queue.sort(key=tenancy.pass_key)
            hold = tenancy.hold
        remaining: list[_Entry] = []
        keep = remaining.append
        n = scanned = len(queue)
        new_min: float = math.inf
        now, tracking, observed = self.now, self.tracking, self.observed
        events, push = self.events, heappush
        seq, record = self.seq, self.started.append
        # Only a capacity change sets the bound to 0, and the next pass
        # is then exhaustive: it re-caps every entry allocated for
        # another cap (none while the platform is down).
        recap = min_demand == 0
        recapped = False
        for idx in range(n):
            entry = queue[idx]
            if recap and self.capacity and entry[6] != self.slot_cap(entry[1]):
                # The allocator's ceil(mu * P_t) cap must track P_t, and
                # an allocation made for a larger platform may no
                # longer fit.
                self.free = free
                entry = self.reallocate(entry[1], None if entry[0] is None else entry[0][1])
                recapped = True
            procs = entry[2]
            if procs <= free and (hold is None or not hold(entry[1], procs)):
                # ``procs`` passed the 1 <= procs <= cap check of its
                # allocation at the current capacity, so it cannot
                # over-pack the live platform.
                free -= procs
                end = now + entry[3]
                if end < now:
                    raise ScheduleError(
                        f"task {self.tasks[entry[1]].id!r}: end {end} before start {now}"
                    )
                event = (end, next(seq), entry[1], procs, now, entry[4])
                record(event)
                push(events, event)
                if tracking:
                    self.claim(event)
                if observed:
                    self.observe_start(event)
            else:
                keep(entry)
                if procs < new_min:
                    new_min = procs
            if free < min_demand:
                # Nothing further can fit: stop.  The unscanned tail
                # stays in place after the kept entries, and the stale
                # bound stays valid — it lower-bounds a superset of
                # the remaining queue.
                scanned = idx + 1
                break
        self.free = free
        self.scan_steps += scanned
        if scanned < n:
            queue[:scanned] = remaining
        else:
            queue[:] = remaining
            self.min_demand = new_min
            if recapped and self.priority is not None:
                # New allocations may move their entries' priorities.
                queue.sort(key=_entry_key)

    # ------------------------------------------------------------------
    # Processor identities, completions and faults (tracking loops)
    # ------------------------------------------------------------------
    def claim(self, event: _Started) -> None:
        """Pack a started attempt onto the lowest free processor indices."""
        ids = tuple(sorted(self.free_set)[: event[3]])
        self.free_set.difference_update(ids)
        for q in ids:
            self.owner[q] = event
        self.running[event[1]] = ids
        if self.tenancy is not None:
            self.tenancy.on_start(event, ids)

    def complete(self, event: _Started) -> bool:
        """Release and record a completion due at :attr:`now`.

        Returns ``False`` for the stale completion of a killed attempt.
        """
        ids = self.running.pop(event[1], None)
        if ids is None:
            return False
        for q in ids:
            del self.owner[q]
        self.free_set.update(ids)
        self.free += event[3]
        if self.record:
            slot = event[2]
            self.finished.append(event)
            attempt = self.attempt_of(slot)
            task_id = self.tasks[slot].id
            self.attempt_log.append(
                AttemptRecord(task_id, attempt, event[4], self.now, event[3], True, ids)
            )
        if self.observed:
            self.observe_completion(event)
        return True

    def kill(self, event: _Started, failed_proc: int = -1) -> None:
        """Kill a running attempt; its processors but ``failed_proc`` go free."""
        slot = event[2]
        task_id = self.tasks[slot].id
        now = self.now
        ids = self.running.pop(event[1])
        for q in ids:
            del self.owner[q]
            if q != failed_proc:
                self.free_set.add(q)
                self.free += 1
        attempt = self.attempt_of(slot)
        if self.record:
            self.attempt_log.append(
                AttemptRecord(task_id, attempt, event[4], now, event[3], False, ids)
            )
        if self.checker is not None:
            self.checker.on_kill(now, task_id)
        if self.emit is not None:
            self.emit(TaskCompleted(now, task_id, event[3], event[4], attempt, False))

    def retry(self, event: _Started) -> float | None:
        """Schedule the next attempt of the task whose attempt ``event`` was killed.

        Returns the backoff delay (0: queued at once), or ``None`` when
        the retry policy's attempt budget is spent.
        """
        policy = self.retry_policy
        assert policy is not None, "a loop that takes faults has a retry policy"
        slot = event[2]
        attempt, model = self.retries.get(slot, (1, self.tasks[slot].model))
        if not policy.allows(attempt + 1):
            return None
        now = self.now
        duration = event[0] - event[4]
        progress = 0.0 if duration <= 0 else (now - event[4]) / duration
        self.retries[slot] = (attempt + 1, policy.residual_model(model, min(progress, 1.0)))
        delay = policy.backoff_delay(attempt)
        if self.emit is not None:
            self.emit(RetryScheduled(now, self.tasks[slot].id, attempt + 1, delay))
        if delay > 0:
            heappush(self.delayed, (now + delay, next(self.seq), slot))
        else:
            self.requeue(slot)
        return delay

    def check_fault(self, proc: int, kind: str) -> None:
        """Raise unless processor ``proc`` can ``kind`` (fail/recover) now."""
        if not 0 <= proc < self.P:
            raise InvalidParameterError(
                f"fault {kind} names processor={proc}, outside [0, {self.P})"
            )
        if (proc in self.down) == (kind == "fail"):
            state = "down" if kind == "fail" else "up"
            raise SimulationError(
                f"processor {proc} cannot {kind} while {state} (t={self.now:.6g})"
            )

    def _fault_event(self, proc: int, kind: str) -> None:
        """Validate one fault, then trace it: a rejected fault leaves no trace."""
        self.check_fault(proc, kind)
        if self.emit is not None:
            self.emit(FaultInjected(self.now, proc, kind))

    def fail(self, proc: int) -> _Started | None:
        """Processor ``proc`` fails; returns the attempt it killed, if any."""
        self._fault_event(proc, "fail")
        self.down.add(proc)
        self.capacity -= 1
        self.min_demand = 0
        if proc in self.free_set:
            self.free_set.discard(proc)
            self.free -= 1
            return None
        victim = self.owner[proc]
        self.kill(victim, proc)
        return victim

    def recover(self, proc: int) -> None:
        """Processor ``proc`` comes back up."""
        self._fault_event(proc, "recover")
        self.down.discard(proc)
        self.capacity += 1
        self.free_set.add(proc)
        self.free += 1
        self.min_demand = 0

    def capacity_changed(self) -> None:
        """Log and announce the live capacity after the faults of an instant."""
        now, capacity, log = self.now, self.capacity, self.capacity_log
        if log and log[-1][0] == now:
            log[-1] = (now, capacity)
        else:
            log.append((now, capacity))
        if self.checker is not None:
            self.checker.on_capacity(now, capacity)
        if self.emit is not None:
            self.emit(CapacityChanged(now, capacity))

    def pop_instant(self) -> tuple[list[_Started], list[int]]:
        """Advance :attr:`now` to the next heap instant and pop what is due then.

        Returns the completions (stale ones of killed attempts included)
        and the slots whose backoff ended, for an incremental driver;
        :meth:`ListScheduler.run` drains its heaps inline.
        """
        events, delayed = self.events, self.delayed
        if events and (not delayed or events[0][0] <= delayed[0][0]):
            now = events[0][0]
        else:
            now = delayed[0][0]
        self.now = now
        done: list[_Started] = []
        while events and events[0][0] == now:
            done.append(heappop(events))
        due: list[int] = []
        while delayed and delayed[0][0] == now:
            due.append(heappop(delayed)[2])
        return done, due

    def cancel(self, slots: list[int]) -> None:
        """Drop the queued entries of ``slots`` and kill their attempts, unretried.

        Their backoff entries stay on the heap for the driver to skip.
        """
        dead = set(slots)
        self.queue[:] = [entry for entry in self.queue if entry[1] not in dead]
        live = {event[2]: event for event in self.owner.values()}
        for slot in slots:
            if slot in live:
                self.kill(live[slot])

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def attempt_of(self, slot: int) -> int:
        return self.retries[slot][0] if slot in self.retries else 1

    def observe_reveal(self, slot: int, alloc: Allocation, cache: str) -> None:
        task = self.tasks[slot]
        if self.checker is not None:
            self.checker.on_reveal(self.now, task.id)
        if self.emit is not None:
            self.emit(TaskRevealed(self.now, task.id))
            model_seen = None if self.use_task_alloc else task.model
            cap = max(self.slot_cap(slot), 1)
            self.emit(_allocation_event(
                self.allocator, model_seen, alloc, cap, self.now, task.id, cache
            ))

    def observe_start(self, event: _Started) -> None:
        task_id = self.tasks[event[2]].id
        attempt = self.attempt_of(event[2])
        if self.checker is not None:
            self.checker.on_start(self.now, task_id, event[3], attempt)
        if self.emit is not None:
            self.emit(TaskStarted(self.now, task_id, event[3], event[0], attempt))

    def observe_completion(self, event: _Started) -> None:
        task_id = self.tasks[event[2]].id
        if self.checker is not None:
            self.checker.on_complete(self.now, task_id)
        if self.emit is not None:
            attempt = self.attempt_of(event[2])
            self.emit(TaskCompleted(self.now, task_id, event[3], event[4], attempt))


class ListScheduler:
    """Online list scheduler over ``P`` processors (Algorithm 1).

    Parameters
    ----------
    P:
        Number of identical processors.
    allocator:
        Processor-allocation strategy applied to each task upon reveal
        (Algorithm 2 for the paper's algorithm; see
        :mod:`repro.baselines.online` for alternatives).
    priority:
        Optional key function ``(task, allocation) -> sortable`` ordering
        the waiting queue; ``None`` keeps pure FIFO insertion order as in
        the paper.
    """

    def __init__(
        self,
        P: int,
        allocator: Allocator,
        *,
        priority: PriorityRule | None = None,
    ) -> None:
        self.P = check_positive_int(P, "P")
        self.allocator = allocator
        self.priority = priority

    # ------------------------------------------------------------------
    def run(
        self,
        source: GraphSource | TaskGraph,
        *,
        faults: FaultModel | None = None,
        retry: RetryPolicy | None = None,
        check_invariants: bool | None = None,
        tracer: Tracer | None = None,
    ) -> SimulationResult:
        """Simulate the schedule of ``source`` and return the result.

        Accepts either a :class:`~repro.sim.sources.GraphSource` or a bare
        :class:`~repro.graph.TaskGraph` (wrapped in a
        :class:`~repro.sim.sources.StaticGraphSource`).

        Parameters
        ----------
        faults:
            Optional processor fault model — anything with a
            ``timeline(P)`` method (:class:`~repro.resilience.faults.FaultTrace`,
            :class:`~repro.resilience.faults.ExponentialFaultModel`, ...).
            Failures kill running attempts and shrink the live capacity;
            recoveries restore it.
        retry:
            Optional :class:`~repro.resilience.retry.RetryPolicy` governing
            killed attempts (default: unlimited immediate restarts).  Only
            meaningful together with ``faults``; either one makes this a
            fault run, which logs every attempt and capacity step and lists
            its schedule in completion order.
        check_invariants:
            Run the :class:`~repro.sim.feasibility.InvariantChecker` after
            every engine event.  Defaults to ``True`` for fault-injected
            runs and ``False`` (zero overhead) for fault-free ones.
        tracer:
            Optional :class:`~repro.obs.events.Tracer` receiving the
            run's typed event stream (reveals, allocation decisions,
            starts, completions, faults, retries, capacity moves, queue
            samples).  Defaults to the ambient tracer installed by
            :func:`~repro.obs.events.use_tracer`, or no tracing.  Tracing
            is purely observational: traced and untraced runs produce
            byte-identical schedules (pinned by the golden-digest tests).
        """
        if isinstance(source, TaskGraph):
            source = StaticGraphSource(source)
        elif not isinstance(source, (StaticGraphSource, GraphSource)):
            raise InvalidParameterError(
                "source must be a TaskGraph or a GraphSource, "
                f"got {type(source).__name__}"
            )
        if tracer is None:
            tracer = active_tracer()
        emit: _Emit | None = None
        if tracer is not None and tracer.enabled:
            emit = tracer.emit
        return self._run_plain(source, faults, retry, check_invariants, emit)

    # ------------------------------------------------------------------
    # The loop of Algorithm 1; a fault-free run has an empty fault timeline
    # ------------------------------------------------------------------
    def _run_plain(
        self,
        source: GraphSource,
        faults: FaultModel | None,
        retry: RetryPolicy | None,
        check_invariants: bool | None,
        emit: _Emit | None = None,
    ) -> SimulationResult:
        P = self.P
        # A fault run (``faults`` or ``retry`` given) packs each attempt
        # onto the lowest free processor indices, records every attempt,
        # and lists its schedule in completion order.  A fault-free run
        # keeps only the free counter and lists its schedule in start order.
        tracking = faults is not None or retry is not None
        if check_invariants is None:
            check_invariants = tracking
        if tracking:
            # Lazy imports keep sim/ below resilience/ in the layering: the
            # engine only duck-types fault models.  ``timeline`` exists in
            # fault runs only.
            from repro.resilience.faults import FaultTimeline
            from repro.resilience.retry import RetryPolicy

            timeline = faults.timeline(P) if faults is not None else FaultTimeline(())
            policy = retry if retry is not None else RetryPolicy()

        # The loop runs in integer slot space: the view numbers tasks
        # (insertion order for static graphs, reveal order otherwise) and
        # maps each slot to its Task and its model group.
        view = slot_view(source)
        tasks = view.tasks
        checker = InvariantChecker(P) if check_invariants else None
        loop = SlotLoop(P, self.allocator, tasks, view.groups, view.resolved,
                        priority=self.priority, tracking=tracking,
                        retry=policy if tracking else None,
                        checker=checker, emit=emit)
        queue, events, delayed, running = loop.queue, loop.events, loop.delayed, loop.running
        admit, start_fitting, requeue, complete = (
            loop.admit, loop.start_fitting, loop.requeue, loop.complete
        )
        observe_completion, observed = loop.observe_completion, loop.observed
        now: Time = 0.0
        n_events = 0

        # ``t_fault`` is the next timeline instant (inf when none is left).
        t_fault: float = math.inf
        if tracking and (t := timeline.peek()) is not None:
            t_fault = t

        def apply_faults() -> None:
            """Apply every timeline event due by ``now``, in timeline order."""
            nonlocal t_fault
            now = loop.now
            while t_fault <= now:
                fault = timeline.pop()
                if fault.time < now:
                    raise InvalidParameterError(
                        f"fault timeline out of time order: {fault!r} is due before t={now:.6g}"
                    )
                if fault.kind == "fail":
                    victim = loop.fail(fault.processor)
                    if victim is not None and loop.retry(victim) is None:
                        task_id = tasks[victim[2]].id
                        attempt = loop.attempt_of(victim[2])
                        raise TaskAbortedError(
                            f"task {task_id!r} killed by a processor failure on attempt "
                            f"{attempt}/{policy.max_attempts} at t={now:.6g}; retry "
                            "budget exhausted",
                            task_id=task_id,
                            attempts=attempt,
                        )
                else:
                    loop.recover(fault.processor)
                t = timeline.peek()
                t_fault = math.inf if t is None else t
            loop.capacity_changed()

        # Faults at the initial instant shrink the platform before reveals.
        if t_fault <= now:
            apply_faults()
        admit(view.initial())
        start_fitting()
        if emit is not None:
            emit(QueueSampled(now, len(queue), loop.free))

        pop = heappop
        on_complete = view.on_complete
        # Sources that also release tasks at future wall-clock times (the
        # "independent tasks released over time" setting) advance time to
        # release instants too, even on an idle platform.
        timed = isinstance(view, NumberedSlots) and view.timed
        if timed:
            next_release = getattr(source, "next_release_time", None)
            release_due = getattr(view, "release_due", None)
        inf = t_release = math.inf
        # One instant: releases and completions (a task finishing exactly
        # when its processor dies has finished), then faults, then the
        # revealed tasks, then due retries, then one queue pass.
        while True:
            while tracking and events and events[0][1] not in running:
                pop(events)  # a killed attempt's completion
            t_next = events[0][0] if events else inf
            if timed:
                upcoming = next_release()
                t_release = inf if upcoming is None else upcoming
                if t_release < t_next:
                    t_next = t_release
            if delayed and delayed[0][0] < t_next:
                t_next = delayed[0][0]
            if t_next == inf:
                # Idle: only a recovery can unblock a non-empty queue, and
                # trailing faults cannot matter once the queue is empty.
                if not queue or t_fault == inf:
                    break
                t_next = t_fault
            now = loop.now = t_next if t_next <= t_fault else t_fault
            n_events += 1
            revealed: list[int] = []
            if t_release <= now:
                revealed.extend(release_due(now))
            # Drain every completion at this instant before rescanning the
            # queue, so simultaneous completions release processors
            # together.
            freed = 0
            while events and events[0][0] == now:
                event = pop(events)
                if tracking:
                    if not complete(event):
                        continue
                else:
                    freed += event[3]
                    if observed:
                        observe_completion(event)
                revealed.extend(on_complete(event[2]))
            loop.free += freed
            if t_fault <= now:
                apply_faults()
            if revealed:
                admit(revealed)
            while delayed and delayed[0][0] <= now:
                requeue(pop(delayed)[2])
            start_fitting()
            if emit is not None:
                emit(QueueSampled(now, len(queue), loop.free))

        if queue:
            stuck = [tasks[entry[1]].id for entry in queue[:10]]
            raise SimulationError(
                f"deadlock: tasks {stuck!r} can never start "
                f"(free={loop.free}, capacity={loop.capacity}, P={P}, no recovery pending)"
            )
        if not view.is_exhausted():
            raise SimulationError(
                "source still holds unrevealed tasks after the queue drained; "
                "the revealed graph is disconnected from its sources"
            )
        if checker is not None:
            checker.on_end(now)
        stats = EngineStats(
            events=n_events,
            tasks_started=len(loop.started),
            queue_scans=loop.queue_scans,
            scans_skipped=loop.scans_skipped,
            scan_steps=loop.scan_steps,
            allocator_calls=loop.n_admitted + loop.n_reallocs,
        )
        cache_info0 = loop.cache_info0
        if loop.cache_info is not None and cache_info0 is not None:
            info = loop.cache_info()
            stats.alloc_cache_hits = info.hits - cache_info0.hits
            stats.alloc_cache_misses = info.misses - cache_info0.misses
            stats.alloc_cache_bypasses = info.bypasses - cache_info0.bypasses
        registry = active_metrics()
        if registry is not None:
            registry.record_engine_stats(stats.as_dict())
        # Every Schedule.add guard already held: one completed attempt per
        # slot, task ids unique per view (checked at reveal), 1 <= procs <= P
        # (checked at allocation) and end >= start (checked at start).
        new = tuple.__new__
        schedule = Schedule._from_entries(P, [
            new(ScheduledTask,
                (tasks[slot].id, start, end, procs, alloc.initial or procs, tasks[slot].tag))
            for end, _, slot, procs, start, alloc in (loop.finished if tracking else loop.started)
        ])
        revealed_log = loop.revealed_log
        ids = [tasks[entry[1]].id for entry in revealed_log]
        allocations = dict(zip(ids, [entry[4] for entry in revealed_log]))
        revealed_at = dict(zip(ids, [entry[5] for entry in revealed_log]))
        for slot, alloc in loop.realloc.items():
            allocations[tasks[slot].id] = alloc
        return SimulationResult(
            schedule, allocations, source.realized_graph(), revealed_at,
            attempt_log=tuple(loop.attempt_log), capacity_timeline=tuple(loop.capacity_log),
            stats=stats,
        )
