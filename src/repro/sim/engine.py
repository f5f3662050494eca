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
:class:`SimulationResult`, aggregated by :func:`profile_engine`) counts
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

import heapq
import itertools
import math
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

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
from repro.obs.metrics import MetricsRegistry, active_metrics, collect_metrics
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
    "SimulationResult",
    "AttemptRecord",
    "EngineStats",
    "profile_engine",
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

    def merge(self, other: "EngineStats") -> None:
        """Accumulate ``other``'s counters into this block (for profiling)."""
        self.events += other.events
        self.tasks_started += other.tasks_started
        self.queue_scans += other.queue_scans
        self.scans_skipped += other.scans_skipped
        self.scan_steps += other.scan_steps
        self.allocator_calls += other.allocator_calls
        self.alloc_cache_hits += other.alloc_cache_hits
        self.alloc_cache_misses += other.alloc_cache_misses
        self.alloc_cache_bypasses += other.alloc_cache_bypasses

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (JSON-safe) including the derived hit rate."""
        return {
            "events": self.events,
            "tasks_started": self.tasks_started,
            "queue_scans": self.queue_scans,
            "scans_skipped": self.scans_skipped,
            "scan_steps": self.scan_steps,
            "allocator_calls": self.allocator_calls,
            "alloc_cache_hits": self.alloc_cache_hits,
            "alloc_cache_misses": self.alloc_cache_misses,
            "alloc_cache_bypasses": self.alloc_cache_bypasses,
            "alloc_cache_hit_rate": round(self.alloc_cache_hit_rate(), 4),
        }

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
        return cls(
            **{
                key: int(payload.get(key, 0))
                for key in (
                    "events",
                    "tasks_started",
                    "queue_scans",
                    "scans_skipped",
                    "scan_steps",
                    "allocator_calls",
                    "alloc_cache_hits",
                    "alloc_cache_misses",
                    "alloc_cache_bypasses",
                )
            }
        )


@contextmanager
def profile_engine() -> Iterator[EngineStats]:
    """Accumulate the stats of every engine run inside the ``with`` block.

    Yields an :class:`EngineStats` that grows as simulations complete —
    including runs started deep inside experiments that never expose their
    :class:`SimulationResult`.  Built on the observability layer's ambient
    :class:`~repro.obs.metrics.MetricsRegistry`
    (:func:`~repro.obs.metrics.collect_metrics`): the block installs a
    registry, every finished run records its counters there, and a
    subscription folds them into the yielded stats block live.  Blocks
    nest (only the innermost collects, the outer is restored on exit) and
    profiling is process-local: runs executed in campaign worker
    processes report through their own registries (see
    ``RunRecord.metrics``), not this one.
    """
    sink = EngineStats()
    registry = MetricsRegistry()
    registry.subscribe_engine_stats(
        lambda stats: sink.merge(EngineStats.from_dict(stats))
    )
    with collect_metrics(registry):
        yield sink

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
#: the reveal (or re-allocation) instant and ``cap`` the live capacity the
#: allocation was made for.
_Entry = tuple[object, int, int, Time, Allocation, Time, int]
#: A started attempt: ``(end, seq, slot, procs, start, allocation)``.
_Started = tuple[Time, int, int, int, Time, Allocation]


def _entry_key(entry: tuple) -> object:
    """Sort key of a plain-path queue entry (its precomputed first slot)."""
    return entry[0]


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
        now,
        task_id,
        alloc.initial,
        alloc.final,
        capacity,
        alloc.final < alloc.initial,
        cache,
        alpha,
        beta,
        attempt,
    )


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
        checker = InvariantChecker(P) if check_invariants else None
        if tracking:
            # Lazy imports keep sim/ below resilience/ in the layering: the
            # engine only duck-types fault models.  ``timeline`` and
            # ``policy`` exist in fault runs only.
            from repro.resilience.faults import FaultTimeline
            from repro.resilience.retry import RetryPolicy

            timeline = faults.timeline(P) if faults is not None else FaultTimeline(())
            policy = retry if retry is not None else RetryPolicy()

        # The loop runs in integer slot space: the view numbers tasks
        # (insertion order for static graphs, reveal order otherwise) and
        # maps each slot to its Task and its model group.
        view = slot_view(source)
        tasks = view.tasks
        groups = view.groups
        resolved = view.resolved
        queue: list[_Entry] = []
        # Every first-attempt queue entry in reveal order, and every start
        # in start order.  The completion heap holds the same start tuples;
        # ``seq`` is unique, so heap comparisons never look past it.  The
        # Schedule, ``allocations`` and ``revealed_at`` are built from these
        # once the loop is done.
        revealed_log: list[_Entry] = []
        started: list[_Started] = []
        events: list[_Started] = []
        seq = itertools.count()
        free = capacity = P
        now: Time = 0.0
        # EngineStats counters, kept in locals until the run is over.
        n_events = queue_scans = scans_skipped = scan_steps = n_reallocs = 0
        priority = self.priority
        # Lower bound on the smallest processor demand among waiting tasks
        # (inf for an empty queue).  The bound lets the engine *prove* a
        # queue pass useless (free < bound => nothing fits) and early-exit
        # passes once the free count drops below it; it is exact after any
        # pass that examined the whole queue and merely conservative (never
        # unsound) otherwise, so schedules are identical to full rescans.
        # A capacity change resets it to 0: the next pass re-caps the queue
        # and must see every entry.
        min_demand: float = math.inf

        # Fault state, touched by fault runs only.  ``t_fault`` is the next
        # timeline instant (inf when none is left).
        t_fault: float = math.inf
        if tracking and (t := timeline.peek()) is not None:
            t_fault = t
        down: set[int] = set()
        free_ids: set[int] = set(range(P)) if tracking else set()
        # Running attempts: processor -> its start tuple, seq -> processors.
        # A killed attempt leaves ``running``; its completion stays on the
        # heap and is skipped.
        owner: dict[int, _Started] = {}
        running: dict[int, tuple[int, ...]] = {}
        # slot -> (attempt, model) of a retried task's current attempt
        # (absent: attempt 1 on ``task.model``); residual models carry
        # checkpointed work.
        retries: dict[int, tuple[int, SpeedupModel]] = {}
        # Backoff heap of ``(due, seq, slot)``, read like timed releases.
        delayed: list[tuple[Time, int, int]] = []
        # slot -> latest allocation, for tasks re-allocated after reveal.
        realloc: dict[int, Allocation] = {}
        finished: list[_Started] = []
        attempt_log: list[AttemptRecord] = []
        capacity_log: list[tuple[Time, int]] = [(0.0, P)] if tracking else []

        # Task-aware allocators (e.g. fixed per-task allotments) expose
        # `allocate_task`; plain allocators only see the speedup model
        # (routed through the memoizing entry point when available).
        allocator = self.allocator
        allocate_task = getattr(allocator, "allocate_task", None)
        allocate_model = getattr(allocator, "allocate_cached", None)
        allocate_keyed = getattr(allocator, "allocate_keyed", None)
        use_task_alloc = callable(allocate_task)
        # Reveal table: ``resolved[group]`` is the (allocation, procs,
        # duration) of a model group, filled on the group's first reveal
        # and read by every later task of the group.  A first reveal looks
        # the model's cache_key up in ``keyed``, so distinct model objects
        # with equal keys share one allocator consultation.  Equal keys
        # mean the same time function (the cache_key contract), so the
        # table is transparent.  It is off exactly where the LRU would be
        # bypassed for every task, and it holds decisions at P only.
        keyed: dict[object, Resolved] = {}
        use_table = callable(allocate_keyed) and not (
            use_task_alloc
            or getattr(allocator, "uses_free", False)
            or getattr(allocator, "cache_maxsize", 0) <= 0
        )
        if not callable(allocate_model):
            allocate_model = allocator.allocate
        cache_info = getattr(allocator, "cache_info", None)
        cache_info0 = cache_info() if callable(cache_info) else None
        heappush = heapq.heappush
        # Reveals, starts and completions call out only when someone
        # observes them (the invariant checker or a tracer).
        observed = checker is not None or emit is not None

        def consult(
            slot: int, model: SpeedupModel, cap: int, key: object
        ) -> tuple[Resolved, str]:
            """One allocator call at live capacity ``cap``, with its cache outcome.

            ``key`` is ``model.cache_key()`` when the reveal table is on.
            """
            # Tracing reads the cache counters around the call to classify
            # it (hit/miss/bypass); pure observation, the allocation itself
            # is untouched.
            info_before = cache_info() if emit is not None and cache_info0 is not None else None
            if use_table:
                alloc = allocate_keyed(model, key, cap, free)
            elif use_task_alloc:
                alloc = allocate_task(tasks[slot], cap, free=free)
            else:
                alloc = allocate_model(model, cap, free=free)
            final = alloc.final
            if not 1 <= final <= cap:
                raise SimulationError(
                    f"allocator returned infeasible allocation {alloc} for task "
                    f"{tasks[slot].id!r} on live capacity P_t={cap}"
                )
            res = (alloc, final, model.time(final))
            if info_before is None:
                return res, "unknown"
            return res, _cache_status(info_before, cache_info())

        def admit(slots: list[int]) -> None:
            nonlocal min_demand
            res: Resolved | None
            for slot in slots:
                if capacity != P:
                    # The table holds decisions at P: below it, consult the
                    # allocator at the live P_t (1 while the whole platform
                    # is down; the entry is re-capped on recovery).
                    model = tasks[slot].model
                    res, cache = consult(
                        slot, model, max(capacity, 1), model.cache_key() if use_table else None
                    )
                elif (res := resolved[groups[slot]]) is not None:
                    # A table hit is the LRU hit it replaces: cache_info()
                    # and EngineStats count it as one.
                    allocator._cache_hits += 1
                    cache = "hit"
                else:
                    model = tasks[slot].model
                    key = None
                    if use_table:
                        # The group's first reveal (or any reveal of a
                        # keyless group): another model object with an
                        # equal key may have been resolved already.
                        key = model.cache_key()
                        if key is not None:
                            try:
                                res = keyed.get(key)
                            except TypeError:  # unhashable key: the LRU bypasses too
                                key = None
                    if res is not None:
                        allocator._cache_hits += 1
                        cache = "hit"
                    else:
                        res, cache = consult(slot, model, P, key)
                        if key is not None:
                            keyed[key] = res
                    if key is not None:
                        resolved[groups[slot]] = res
                alloc, final, duration = res
                if observed:
                    observe_reveal(slot, alloc, cache)
                if final < min_demand:
                    min_demand = final
                if priority is None:
                    # FIFO skips the seq draw: admit-side seq values never
                    # enter the event heap, and the heap's tie-break only
                    # needs event seqs to be strictly increasing (which
                    # they remain), so the schedule is unchanged.
                    entry = (None, slot, final, duration, alloc, now, capacity)
                    queue.append(entry)
                else:
                    # Sorted insertion replaces per-admit full sorts:
                    # allocations and priorities only move in a re-cap
                    # pass, which re-sorts, so inserting by the precomputed
                    # (priority, seq) key reproduces repeated stable sorts
                    # exactly.
                    entry = (
                        (priority(tasks[slot], alloc), next(seq)),
                        slot,
                        final,
                        duration,
                        alloc,
                        now,
                        capacity,
                    )
                    insort(queue, entry, key=_entry_key)
                revealed_log.append(entry)

        def reallocate(slot: int, order: object) -> _Entry:
            """Queue entry of a queued or retried task, allocated at the live capacity.

            ``order`` is the entry's seq under a priority rule (its priority
            is recomputed for the new allocation) and ``None`` under FIFO.
            """
            nonlocal n_reallocs
            n_reallocs += 1
            attempt, model = retries.get(slot, (1, tasks[slot].model))
            cap = max(capacity, 1)  # provisional while the whole platform is down
            (alloc, final, duration), cache = consult(
                slot, model, cap, model.cache_key() if use_table else None
            )
            realloc[slot] = alloc
            if emit is not None:
                emit(
                    _allocation_event(
                        allocator,
                        None if use_task_alloc else model,
                        alloc,
                        cap,
                        now,
                        tasks[slot].id,
                        cache,
                        attempt,
                    )
                )
            key = None if priority is None else (priority(tasks[slot], alloc), order)
            return (key, slot, final, duration, alloc, now, capacity)

        def requeue(slot: int) -> None:
            """Queue the next attempt of a killed task."""
            nonlocal min_demand
            entry = reallocate(slot, None if priority is None else next(seq))
            if priority is None:
                queue.append(entry)
            else:
                insort(queue, entry, key=_entry_key)
            if entry[2] < min_demand:
                min_demand = entry[2]

        def start_fitting() -> None:
            nonlocal free, min_demand, queue_scans, scans_skipped, scan_steps
            if not queue:
                return
            if free < min_demand:
                scans_skipped += 1
                return
            queue_scans += 1
            remaining: list[_Entry] = []
            keep = remaining.append
            n = len(queue)
            scanned = n
            new_min: float = math.inf
            # Only a capacity change sets the bound to 0, and the next pass
            # is then exhaustive: it re-caps every entry allocated for
            # another capacity (none while the platform is down).
            recap = min_demand == 0
            recapped = False
            for idx in range(n):
                entry = queue[idx]
                if recap and entry[6] != capacity and capacity:
                    # The allocator's ceil(mu * P_t) cap must track P_t, and
                    # an allocation made for a larger platform may no
                    # longer fit.
                    entry = reallocate(entry[1], None if entry[0] is None else entry[0][1])
                    recapped = True
                procs = entry[2]
                if procs <= free:
                    # ``procs`` passed the 1 <= procs <= P_t check of its
                    # allocation at the current capacity, so it cannot
                    # over-pack the live platform.
                    free -= procs
                    end = now + entry[3]
                    if end < now:
                        raise ScheduleError(
                            f"task {tasks[entry[1]].id!r}: end {end} before start {now}"
                        )
                    event = (end, next(seq), entry[1], procs, now, entry[4])
                    started.append(event)
                    heappush(events, event)
                    if tracking:
                        claim(event)
                    if observed:
                        observe_start(event)
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
            scan_steps += scanned
            if scanned < n:
                queue[:scanned] = remaining
            else:
                queue[:] = remaining
                min_demand = new_min
                if recapped and priority is not None:
                    # New allocations may move their entries' priorities.
                    queue.sort(key=_entry_key)

        def claim(event: _Started) -> None:
            """Pack a started attempt onto the lowest free processor indices."""
            ids = tuple(sorted(free_ids)[: event[3]])
            free_ids.difference_update(ids)
            for q in ids:
                owner[q] = event
            running[event[1]] = ids

        def finish(event: _Started) -> bool:
            """Release and record a fault run's completed attempt.

            Returns ``False`` for the stale completion of a killed attempt.
            """
            ids = running.pop(event[1], None)
            if ids is None:
                return False
            for q in ids:
                del owner[q]
            free_ids.update(ids)
            finished.append(event)
            attempt_log.append(
                AttemptRecord(
                    tasks[event[2]].id, attempt_of(event[2]), event[4], now, event[3], True, ids
                )
            )
            return True

        def kill(event: _Started, failed_proc: int) -> None:
            """Kill the attempt running on ``failed_proc`` and schedule its retry."""
            nonlocal free
            slot = event[2]
            task_id = tasks[slot].id
            ids = running.pop(event[1])
            for q in ids:
                del owner[q]
                if q != failed_proc:
                    free_ids.add(q)
                    free += 1
            attempt, model = retries.get(slot, (1, tasks[slot].model))
            attempt_log.append(
                AttemptRecord(task_id, attempt, event[4], now, event[3], False, ids)
            )
            if checker is not None:
                checker.on_kill(now, task_id)
            if emit is not None:
                emit(TaskCompleted(now, task_id, event[3], event[4], attempt, False))
            if not policy.allows(attempt + 1):
                raise TaskAbortedError(
                    f"task {task_id!r} killed by a processor failure on attempt "
                    f"{attempt}/{policy.max_attempts} at t={now:.6g}; retry "
                    "budget exhausted",
                    task_id=task_id,
                    attempts=attempt,
                )
            duration = event[0] - event[4]
            progress = 0.0 if duration <= 0 else (now - event[4]) / duration
            retries[slot] = (attempt + 1, policy.residual_model(model, min(progress, 1.0)))
            delay = policy.backoff_delay(attempt)
            if emit is not None:
                emit(RetryScheduled(now, task_id, attempt + 1, delay))
            if delay > 0:
                heappush(delayed, (now + delay, next(seq), slot))
            else:
                requeue(slot)

        def apply_faults() -> None:
            """Apply every timeline event due by ``now``, in timeline order."""
            nonlocal capacity, free, min_demand, t_fault
            while t_fault <= now:
                fault = timeline.pop()
                proc = fault.processor
                if fault.time < now:
                    raise InvalidParameterError(
                        f"fault timeline out of time order: {fault!r} is due before t={now:.6g}"
                    )
                if not 0 <= proc < P:
                    raise InvalidParameterError(
                        f"fault event {fault!r} names a processor outside [0, {P})"
                    )
                if emit is not None:
                    emit(FaultInjected(now, proc, fault.kind))
                if fault.kind == "fail":
                    if proc in down:
                        raise SimulationError(
                            f"fault trace fails processor {proc} twice (t={now:.6g})"
                        )
                    down.add(proc)
                    capacity -= 1
                    if proc in free_ids:
                        free_ids.discard(proc)
                        free -= 1
                    else:
                        kill(owner[proc], proc)
                else:  # recover
                    if proc not in down:
                        raise SimulationError(
                            f"fault trace recovers processor {proc} while up (t={now:.6g})"
                        )
                    down.discard(proc)
                    capacity += 1
                    free_ids.add(proc)
                    free += 1
                t = timeline.peek()
                t_fault = math.inf if t is None else t
            min_demand = 0
            if capacity_log[-1][0] == now:
                capacity_log[-1] = (now, capacity)
            else:
                capacity_log.append((now, capacity))
            if checker is not None:
                checker.on_capacity(now, capacity)
            if emit is not None:
                emit(CapacityChanged(now, capacity))

        def attempt_of(slot: int) -> int:
            return retries[slot][0] if slot in retries else 1

        def observe_reveal(slot: int, alloc: Allocation, cache: str) -> None:
            task = tasks[slot]
            if checker is not None:
                checker.on_reveal(now, task.id)
            if emit is not None:
                emit(TaskRevealed(now, task.id))
                emit(
                    _allocation_event(
                        allocator,
                        None if use_task_alloc else task.model,
                        alloc,
                        max(capacity, 1),
                        now,
                        task.id,
                        cache,
                    )
                )

        def observe_start(event: _Started) -> None:
            task_id = tasks[event[2]].id
            attempt = attempt_of(event[2])
            if checker is not None:
                checker.on_start(now, task_id, event[3], attempt)
            if emit is not None:
                emit(TaskStarted(now, task_id, event[3], event[0], attempt))

        def observe_completion(event: _Started) -> None:
            task_id = tasks[event[2]].id
            if checker is not None:
                checker.on_complete(now, task_id)
            if emit is not None:
                emit(TaskCompleted(now, task_id, event[3], event[4], attempt_of(event[2])))

        # Faults at the initial instant shrink the platform before reveals.
        if t_fault <= now:
            apply_faults()
        admit(view.initial())
        start_fitting()
        if emit is not None:
            emit(QueueSampled(now, len(queue), free))

        heappop = heapq.heappop
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
                heappop(events)  # a killed attempt's completion
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
            now = t_next if t_next <= t_fault else t_fault
            n_events += 1
            revealed: list[int] = []
            if t_release <= now:
                revealed.extend(release_due(now))
            # Drain every completion at this instant before rescanning the
            # queue, so simultaneous completions release processors
            # together.
            while events and events[0][0] == now:
                event = heappop(events)
                if tracking and not finish(event):
                    continue
                free += event[3]
                if observed:
                    observe_completion(event)
                revealed.extend(on_complete(event[2]))
            if t_fault <= now:
                apply_faults()
            if revealed:
                admit(revealed)
            while delayed and delayed[0][0] <= now:
                requeue(heappop(delayed)[2])
            start_fitting()
            if emit is not None:
                emit(QueueSampled(now, len(queue), free))

        if queue:
            stuck = [tasks[entry[1]].id for entry in queue[:10]]
            raise SimulationError(
                f"deadlock: tasks {stuck!r} can never start "
                f"(free={free}, capacity={capacity}, P={P}, no recovery pending)"
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
            tasks_started=len(started),
            queue_scans=queue_scans,
            scans_skipped=scans_skipped,
            scan_steps=scan_steps,
            allocator_calls=len(revealed_log) + n_reallocs,
        )
        if cache_info0 is not None:
            info = cache_info()
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
        schedule = Schedule._from_entries(
            P,
            [
                new(
                    ScheduledTask,
                    (tasks[slot].id, start, end, procs, alloc.initial or procs, tasks[slot].tag),
                )
                for end, _, slot, procs, start, alloc in (finished if tracking else started)
            ],
        )
        ids = [tasks[entry[1]].id for entry in revealed_log]
        allocations = dict(zip(ids, [entry[4] for entry in revealed_log]))
        revealed_at = dict(zip(ids, [entry[5] for entry in revealed_log]))
        for slot, alloc in realloc.items():
            allocations[tasks[slot].id] = alloc
        return SimulationResult(
            schedule,
            allocations,
            source.realized_graph(),
            revealed_at,
            attempt_log=tuple(attempt_log),
            capacity_timeline=tuple(capacity_log),
            stats=stats,
        )
