"""Seeded mutations: every tier's entry point rejects each illegal run.

One clean run per tier — the reference engine, a resilient run under a
``FaultTrace``, a ``MalleableSchedule`` and a traced ``ServiceCore``
session — must pass, including its traced event stream fed to the
checker.  Each of four mutations (self-overlap, a start before a
predecessor ends, over-capacity, time reversal) must then raise a typed
``ReproError`` through that tier's entry point, wherever the tier can
express it.
"""

import dataclasses

import pytest

from repro.core import OnlineScheduler
from repro.exceptions import (
    CapacityExceededError,
    InvariantViolationError,
    PrecedenceViolationError,
    ScheduleError,
)
from repro.graph import TaskGraph
from repro.malleable import MalleableSchedule, MalleableScheduler
from repro.obs.events import (
    CapacityChanged,
    CollectingTracer,
    MultiTracer,
    QueueSampled,
    TaskCompleted,
    TaskRevealed,
    TaskStarted,
)
from repro.resilience import FaultTrace, RetryPolicy
from repro.service.config import ServiceConfig
from repro.service.core import ServiceCore
from repro.service.protocol import Hello, Submit
from repro.sim import AttemptRecord, InvariantChecker, Schedule, validate_result
from repro.speedup import RooflineModel

P = 4
#: A chain a -> b -> c of tasks that run on at most 2 of the 4 processors,
#: so shifting one task onto its predecessor breaks precedence only.
CHAIN = (("a", 4.0), ("b", 6.0), ("c", 4.0))
CHECKED = (TaskRevealed, TaskStarted, TaskCompleted, CapacityChanged)


def chain() -> TaskGraph:
    g = TaskGraph()
    for name, work in CHAIN:
        g.add_task(name, RooflineModel(work, 2))
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


def engine_run(faults=None):
    tracer = CollectingTracer()
    scheduler = OnlineScheduler.for_family("roofline", P)
    retry = RetryPolicy() if faults is not None else None
    result = scheduler.run(chain(), faults=faults, retry=retry, tracer=tracer)
    return result, [e for e in tracer.events if isinstance(e, CHECKED)]


def reference_run():
    return engine_run()


def resilient_run():
    # Processor 0 fails while a's first attempt runs on it and recovers.
    return engine_run(FaultTrace.from_downtimes([(0, 1.0, 1.5)]))


def service_stream():
    collector = CollectingTracer()
    checker = InvariantChecker(P)
    tracer = MultiTracer(checker, collector)
    core = ServiceCore(ServiceConfig(P=P, family="roofline"), emit=tracer.emit)
    core.hello(Hello(tenant="t"))
    deps: tuple[str, ...] = ()
    for name, work in CHAIN:
        core.submit("t", Submit(task=name, model=RooflineModel(work, 2), deps=deps))
        deps = (name,)
    victim = next(iter(core.pool.proc_owner))
    core.fault("fail", victim)
    core.fault("recover", victim)
    core.close("t")
    core.drain()
    checker.on_end(core.pool.now)
    return [e for e in collector.events if isinstance(e, CHECKED)]


def replay(events) -> None:
    checker = InvariantChecker(P)
    for event in events:
        checker.emit(event)
    checker.on_end(checker.now)


# ----------------------------------------------------------------------
# Event-stream mutations (reference, resilient and service streams)
# ----------------------------------------------------------------------
def _first(events, kind):
    return next(i for i, e in enumerate(events) if isinstance(e, kind))


def stream_overlap(events):
    i = _first(events, TaskStarted)
    return events[: i + 1] + [events[i]] + events[i + 1 :]


def stream_early_start(events):
    # The last start belongs to c, revealed only once b completed.
    i = max(k for k, e in enumerate(events) if isinstance(e, TaskStarted))
    start = events[i]
    reveals = [k for k, e in enumerate(events) if isinstance(e, TaskRevealed)]
    r = next(k for k in reveals if events[k].task_id == start.task_id)
    moved = events[:i] + events[i + 1 :]
    return moved[:r] + [dataclasses.replace(start, time=events[r].time)] + moved[r:]


def stream_over_capacity(events):
    i = _first(events, TaskStarted)
    t = events[i].time
    ghost = [TaskRevealed(t, "ghost"), TaskStarted(t, "ghost", P, t + 1.0)]
    return events[: i + 1] + ghost + events[i + 1 :]


def stream_time_reversal(events):
    last = events[-1]
    return events[:-1] + [dataclasses.replace(last, time=events[-2].time / 2)]


STREAM_MUTATIONS = {
    "overlap": (stream_overlap, InvariantViolationError, "self-overlap"),
    "early-start": (stream_early_start, InvariantViolationError, "before being revealed"),
    "over-capacity": (stream_over_capacity, CapacityExceededError, "exceed"),
    "time-reversal": (stream_time_reversal, InvariantViolationError, "backwards"),
}
STREAMS = {
    "reference": lambda: reference_run()[1],
    "resilient": lambda: resilient_run()[1],
    "service": service_stream,
}


class TestEventStreams:
    @pytest.mark.parametrize("tier", sorted(STREAMS))
    def test_clean_stream_passes(self, tier):
        events = STREAMS[tier]()
        assert any(isinstance(e, TaskStarted) for e in events)
        replay(events)

    @pytest.mark.parametrize("mutation", sorted(STREAM_MUTATIONS))
    @pytest.mark.parametrize("tier", sorted(STREAMS))
    def test_mutation_rejected(self, tier, mutation):
        mutate, error, match = STREAM_MUTATIONS[mutation]
        with pytest.raises(error, match=match):
            replay(mutate(STREAMS[tier]()))

    def test_faulted_streams_carry_a_kill(self):
        for events in (resilient_run()[1], service_stream()):
            assert any(isinstance(e, TaskCompleted) and not e.completed for e in events)


# ----------------------------------------------------------------------
# Record mutations (reference and resilient results)
# ----------------------------------------------------------------------
def _attempts(result):
    if result.attempt_log:
        return list(result.attempt_log)
    return [AttemptRecord(e.task_id, 1, e.start, e.end, e.procs, True) for e in result.schedule]


def _rebuild(result, attempts):
    """``result`` with its attempts (and the schedule they imply) replaced."""
    schedule = Schedule(result.schedule.P)
    for a in attempts:
        if a.completed:
            schedule.add(a.task_id, a.start, a.end, a.procs)
    log = tuple(attempts) if result.attempt_log else ()
    return dataclasses.replace(result, schedule=schedule, attempt_log=log)


def record_overlap(result):
    attempts = _attempts(result)
    if not result.attempt_log:
        # A schedule holds one entry per task: a second, overlapping
        # execution is refused when it is recorded.
        return _rebuild(result, attempts + [attempts[0]])
    killed = next(a for a in attempts if not a.completed)
    retry = next(
        a for a in attempts if a.task_id == killed.task_id and a.attempt == killed.attempt + 1
    )
    moved = dataclasses.replace(retry, start=killed.start, end=killed.start + retry.duration)
    return _rebuild(result, [moved if a is retry else a for a in attempts])


def record_early_start(result):
    attempts = _attempts(result)
    a_end = next(a.end for a in attempts if a.task_id == "a" and a.completed)
    b = next(a for a in attempts if a.task_id == "b")
    moved = dataclasses.replace(b, start=a_end - 1.0, end=a_end - 1.0 + b.duration)
    return _rebuild(result, [moved if a is b else a for a in attempts])


def record_over_capacity(result):
    ghost = AttemptRecord("ghost", 1, 0.0, result.makespan, P, True)
    return _rebuild(result, _attempts(result) + [ghost])


def record_time_reversal(result):
    attempts = _attempts(result)
    victim = next((a for a in attempts if not a.completed), attempts[0])
    reversed_ = dataclasses.replace(victim, start=victim.end, end=victim.start - 1.0)
    return _rebuild(result, [reversed_ if a is victim else a for a in attempts])


RECORD_MUTATIONS = {
    "overlap": record_overlap,
    "early-start": record_early_start,
    "over-capacity": record_over_capacity,
    "time-reversal": record_time_reversal,
}
#: (tier, mutation) -> (error, match) where the tiers differ.
RECORD_ERRORS = {
    ("reference", "overlap"): (ScheduleError, "scheduled twice"),
    ("resilient", "overlap"): (InvariantViolationError, "before attempt"),
    ("reference", "early-start"): (PrecedenceViolationError, "before predecessor"),
    ("resilient", "early-start"): (PrecedenceViolationError, "before predecessor"),
    ("reference", "over-capacity"): (CapacityExceededError, "busy"),
    ("resilient", "over-capacity"): (CapacityExceededError, "busy"),
    ("reference", "time-reversal"): (ScheduleError, "before start"),
    ("resilient", "time-reversal"): (InvariantViolationError, "ends before it starts"),
}
RUNS = {"reference": reference_run, "resilient": resilient_run}


class TestRunRecords:
    @pytest.mark.parametrize("tier", sorted(RUNS))
    def test_clean_run_passes(self, tier):
        result, _ = RUNS[tier]()
        validate_result(result, result.graph, check_durations=tier == "reference")
        result.schedule.validate(result.graph, check_durations=tier == "reference")

    @pytest.mark.parametrize("mutation", sorted(RECORD_MUTATIONS))
    @pytest.mark.parametrize("tier", sorted(RUNS))
    def test_mutation_rejected(self, tier, mutation):
        result, _ = RUNS[tier]()
        error, match = RECORD_ERRORS[(tier, mutation)]
        with pytest.raises(error, match=match):
            validate_result(RECORD_MUTATIONS[mutation](result), result.graph)


# ----------------------------------------------------------------------
# Malleable schedules
# ----------------------------------------------------------------------
def malleable_copy(schedule, shift=None, extra=()):
    """Rebuild ``schedule`` segment by segment, shifting one task's segments."""
    copy = MalleableSchedule(schedule.P)
    for s in schedule:
        dt = shift[1] if shift is not None and s.task_id == shift[0] else 0.0
        copy.add_segment(s.task_id, s.start + dt, s.end + dt, s.procs)
    for task_id, start, end, procs in extra:
        copy.add_segment(task_id, start, end, procs)
    return copy


class TestMalleable:
    def schedule(self):
        return MalleableScheduler(P).run(chain()).schedule

    def test_clean_schedule_passes(self):
        self.schedule().validate(chain())
        malleable_copy(self.schedule()).validate(chain())

    def test_overlap_rejected(self):
        schedule = self.schedule()
        first = schedule.segments("a")[0]
        with pytest.raises(ScheduleError, match="overlap"):
            malleable_copy(schedule, extra=[("a", first.start, first.end, first.procs)])

    def test_early_start_rejected(self):
        schedule = self.schedule()
        shift = schedule.end("a") - 1.0 - schedule.start("b")
        with pytest.raises(PrecedenceViolationError, match="before predecessor"):
            malleable_copy(schedule, shift=("b", shift)).validate(chain())

    def test_over_capacity_rejected(self):
        schedule = self.schedule()
        ghost = ("ghost", 0.0, schedule.makespan(), P)
        with pytest.raises(CapacityExceededError, match="busy"):
            malleable_copy(schedule, extra=[ghost]).validate(chain())

    def test_time_reversal_rejected(self):
        with pytest.raises(ScheduleError, match="before start"):
            malleable_copy(self.schedule(), extra=[("late", 5.0, 4.0, 1)])


# ----------------------------------------------------------------------
# Checker rules without a producer
# ----------------------------------------------------------------------
class TestCheckerRules:
    def test_attempt_numbers_follow_start_order(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        with pytest.raises(InvariantViolationError, match="attempt 2 started as attempt 1"):
            c.on_start(0.0, "a", 1, 2)

    def test_kill_must_be_retried_by_the_end(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_start(0.0, "a", 1, 1)
        c.on_kill(1.0, "a")
        with pytest.raises(InvariantViolationError, match="never retried"):
            c.on_end(1.0)
        c.on_start(1.0, "a", 1, 2)
        c.on_complete(2.0, "a")
        c.on_end(2.0)

    def test_forget_is_the_abort_and_frees_the_id(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_start(0.0, "a", 1)
        with pytest.raises(InvariantViolationError, match="running task forgotten"):
            c.forget(["a"])
        c.on_kill(1.0, "a")
        c.forget(["a"])
        c.on_end(1.0)
        c.on_reveal(2.0, "a")  # the id is free for a new session

    def test_forget_keeps_the_live_entries_of_shrunk_tables(self):
        c = InvariantChecker(4)
        for i in range(100):
            c.on_reveal(0.0, i)
        for i in (0, 1):
            c.on_start(0.0, i, 1)
            c.on_kill(0.0, i)
        c.on_start(0.0, 0, 1, 2)
        c.on_complete(1.0, 0)
        c.forget(range(2, 100))  # over half gone: the tables are rebuilt
        assert list(c._attempts) == [0, 1] and c._killed == {1}
        with pytest.raises(InvariantViolationError, match="after completing"):
            c.on_start(1.0, 0, 1, 3)
        c.on_start(1.0, 1, 1, 2)
        c.on_complete(2.0, 1)
        c.on_end(2.0)

    def test_tracer_facet_ignores_unchecked_events(self):
        c = InvariantChecker(4)
        tracer = MultiTracer(c)
        assert tracer.enabled
        tracer.emit(QueueSampled(5.0, 0, 4))
        tracer.emit(TaskRevealed(0.0, "a"))
        assert c.events_checked == 1
