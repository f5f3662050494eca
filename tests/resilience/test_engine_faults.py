"""Engine-level processor-fault tests: kills, retries, dynamic capacity.

Covers the fault-aware event loop of :meth:`ListScheduler.run`: victim
selection, re-capping at the live capacity, backoff delays, checkpoint
resumes, abort on exhausted retry budgets, deadlock detection, and the
property that arbitrary fault traces still yield invariant-clean runs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.online import SingleProcessorAllocator
from repro.core import OnlineScheduler
from repro.core.constants import MODEL_FAMILIES, mu_for_family
from repro.core.priorities import PRIORITY_RULES
from repro.exceptions import InvalidParameterError, SimulationError, TaskAbortedError
from repro.graph import TaskGraph
from repro.graph.generators import (
    chain,
    erdos_renyi_dag,
    fork_join,
    independent_tasks,
    layered_random,
)
from repro.obs.events import AllocationDecided, CollectingTracer, FaultInjected
from repro.resilience import (
    BurstFaultModel,
    ExponentialFaultModel,
    FailureInjectingSource,
    FaultTrace,
    RetryPolicy,
)
from repro.resilience.faults import FaultEvent, FaultTimeline
from repro.sim import ListScheduler, ReleasedTaskSource, validate_result
from repro.sim.allocation import Allocation, Allocator
from repro.speedup import AmdahlModel, RandomModelFactory, RooflineModel
from repro.workflows import cholesky


def amdahl():
    return AmdahlModel(8.0, 1.0)


def single_task_graph(model=None):
    g = TaskGraph()
    g.add_task("t", model or AmdahlModel(8.0, 1.0))
    return g


class TestFaultFreeEquivalence:
    def test_empty_trace_matches_plain_run(self, small_graph):
        scheduler = OnlineScheduler.for_family("amdahl", 8)
        plain = scheduler.run(small_graph)
        faulty = scheduler.run(small_graph, faults=FaultTrace())
        assert faulty.makespan == pytest.approx(plain.makespan)
        assert faulty.killed_attempts() == 0
        assert faulty.min_capacity() == 8
        assert all(count == 1 for count in faulty.attempt_counts().values())

    def test_faults_on_idle_processors_do_not_change_makespan(self):
        # One 1-proc task on P=8: processors 1..7 are idle victims.
        graph = single_task_graph()
        scheduler = OnlineScheduler.for_family("amdahl", 8)
        plain = scheduler.run(graph)
        trace = FaultTrace.from_downtimes([(7, 0.1, 0.2), (6, 0.1, None)])
        faulty = scheduler.run(graph, faults=trace)
        assert faulty.makespan == pytest.approx(plain.makespan)
        assert faulty.killed_attempts() == 0


def _per_task(result):
    return {entry.task_id: entry for entry in result.schedule}


@pytest.mark.parametrize("P", [4, 16, 64])
@pytest.mark.parametrize("shape", ["layered", "erdos-renyi"])
@pytest.mark.parametrize("family", MODEL_FAMILIES)
@pytest.mark.parametrize("rule", ["fifo", "widest"])
def test_fault_free_run_is_the_empty_timeline_run(rule, family, shape, P):
    """No faults and an empty timeline run one loop: the same schedule, exactly.

    ``faults=FaultTrace()`` and ``retry=RetryPolicy()`` only switch on the
    fault telemetry (attempt log, processor ids, completion order).
    """
    factory = RandomModelFactory(family=family, seed=P)
    if shape == "layered":
        graph = layered_random(4, 8, factory, edge_probability=0.3, seed=P)
    else:
        graph = erdos_renyi_dag(30, factory, edge_probability=0.15, seed=P)
    scheduler = OnlineScheduler.for_family(family, P, priority=PRIORITY_RULES[rule]())
    plain = scheduler.run(graph)
    for result in (
        scheduler.run(graph, faults=FaultTrace()),
        scheduler.run(graph, retry=RetryPolicy()),
    ):
        assert _per_task(result) == _per_task(plain)
        assert list(result.allocations.items()) == list(plain.allocations.items())
        assert list(result.revealed_at.items()) == list(plain.revealed_at.items())
        assert result.killed_attempts() == 0
    assert plain.attempt_log == ()
    assert plain.capacity_timeline == ()


class _Timeline:
    """A fault model that hands the engine its events unchecked."""

    def __init__(self, events):
        self.events = [FaultEvent(t, kind, proc) for t, kind, proc in events]

    def timeline(self, P):
        return FaultTimeline(self.events)


class TestMalformedTimelines:
    def test_processor_outside_the_platform_is_rejected(self):
        # Applied, the event would drop the capacity to 1 while two tasks
        # still start at t=0 on P=2.
        scheduler = ListScheduler(2, SingleProcessorAllocator())
        faults = _Timeline([(0.0, "fail", 99), (0.5, "recover", 99)])
        for check in (False, True):
            with pytest.raises(InvalidParameterError, match="processor=99"):
                scheduler.run(
                    independent_tasks(4, amdahl), faults=faults, check_invariants=check
                )

    @pytest.mark.parametrize(
        "events", [[(0.5, "fail", 0), (1.0, "fail", 0)], [(0.5, "recover", 1)]]
    )
    def test_rejected_fault_is_not_traced(self, events):
        # A fault that fails a down processor or recovers an up one is
        # refused before it is traced.
        tracer = CollectingTracer()
        scheduler = ListScheduler(2, SingleProcessorAllocator())
        with pytest.raises(SimulationError, match="cannot"):
            scheduler.run(
                independent_tasks(4, lambda: AmdahlModel(10.0, 1.0)),
                faults=_Timeline(events),
                tracer=tracer,
            )
        injected = tracer.of_type(FaultInjected)
        assert [(e.time, e.kind, e.processor) for e in injected] == events[:-1]

    def test_out_of_order_timeline_is_rejected(self):
        # Applied when reached, processor 1's failure at t=1 would kill at t=5.
        scheduler = ListScheduler(2, SingleProcessorAllocator())
        faults = _Timeline(
            [(5.0, "fail", 0), (1.0, "fail", 1), (6.0, "recover", 0), (6.0, "recover", 1)]
        )
        with pytest.raises(InvalidParameterError, match=r"time=1\.0.*before t=5"):
            scheduler.run(independent_tasks(2, lambda: AmdahlModel(10.0, 1.0)), faults=faults)


class TestVictimKillAndRetry:
    def test_kill_and_restart(self):
        graph = single_task_graph()
        scheduler = OnlineScheduler.for_family("amdahl", 2)
        plain = scheduler.run(graph)
        t_kill = plain.makespan / 2
        # The task runs on processor 0 (lowest free index); kill it mid-run.
        trace = FaultTrace.from_downtimes([(0, t_kill, None)])
        result = scheduler.run(graph, faults=trace)
        validate_result(result, result.graph)
        assert result.killed_attempts() == 1
        assert result.attempt_counts()["t"] == 2
        # Full restart on the surviving processor: kill instant + full time.
        assert result.makespan == pytest.approx(t_kill + plain.makespan)
        assert result.wasted_work() == pytest.approx(t_kill)

    def test_checkpoint_resumes_remaining_work(self):
        graph = single_task_graph()
        scheduler = OnlineScheduler.for_family("amdahl", 2)
        plain = scheduler.run(graph)
        t_kill = plain.makespan / 2
        trace = FaultTrace.from_downtimes([(0, t_kill, None)])
        result = scheduler.run(
            graph, faults=trace, retry=RetryPolicy(checkpoint=True)
        )
        validate_result(result, result.graph)
        # Resumes with the remaining half of the work: no time lost at all
        # (the retry starts immediately on the surviving processor).
        assert result.makespan == pytest.approx(plain.makespan)

    def test_backoff_delays_the_retry(self):
        graph = single_task_graph()
        scheduler = OnlineScheduler.for_family("amdahl", 2)
        plain = scheduler.run(graph)
        t_kill = plain.makespan / 3
        delay = 2.5
        trace = FaultTrace.from_downtimes([(0, t_kill, None)])
        result = scheduler.run(
            graph, faults=trace, retry=RetryPolicy(backoff_base=delay)
        )
        second = [a for a in result.attempt_log if a.attempt == 2]
        assert len(second) == 1
        assert second[0].start == pytest.approx(t_kill + delay)
        assert result.makespan == pytest.approx(t_kill + delay + plain.makespan)

    def test_abort_when_budget_exhausted(self):
        graph = single_task_graph()
        scheduler = OnlineScheduler.for_family("amdahl", 2)
        plain = scheduler.run(graph)
        trace = FaultTrace.from_downtimes([(0, plain.makespan / 2, None)])
        with pytest.raises(TaskAbortedError) as excinfo:
            scheduler.run(graph, faults=trace, retry=RetryPolicy(max_attempts=1))
        assert excinfo.value.task_id == "t"
        assert excinfo.value.attempts == 1

    def test_repeated_kills_accumulate_attempts(self):
        graph = single_task_graph()
        scheduler = OnlineScheduler.for_family("amdahl", 4)
        plain = scheduler.run(graph)
        step = plain.makespan / 4
        # Kill whichever processor hosts the task, three times in a row;
        # after each kill the retry starts on the next lowest free index.
        trace = FaultTrace.from_downtimes(
            [(0, step, None), (1, 2 * step + step, None), (2, 3 * step + 2 * step, None)]
        )
        result = scheduler.run(graph, faults=trace)
        validate_result(result, result.graph)
        assert result.attempt_counts()["t"] == 4
        assert result.killed_attempts() == 3


class TestDynamicCapacity:
    def test_recap_during_capacity_drop(self):
        # 12 wide independent tasks on P=32; while capacity is halved the
        # allocator must cap at ceil(mu * 16) instead of ceil(mu * 32).
        P = 32
        graph = TaskGraph()
        for i in range(12):
            graph.add_task(i, RooflineModel(w=10.0, max_parallelism=64))
        scheduler = OnlineScheduler.for_family("roofline", P)
        mu = mu_for_family("roofline")
        plain = scheduler.run(graph)
        lo, hi = plain.makespan * 0.1, plain.makespan * 10.0
        trace = FaultTrace.from_downtimes([(p, lo, hi) for p in range(P // 2)])
        result = scheduler.run(graph, faults=trace)
        validate_result(result, result.graph)
        assert result.min_capacity() == P // 2
        full_cap = math.ceil(mu * P)
        low_cap = math.ceil(mu * (P // 2))
        in_window = [a for a in result.attempt_log if lo <= a.start < hi]
        assert in_window, "some attempts must start while capacity is halved"
        assert all(a.procs <= low_cap for a in in_window)
        before = [a for a in result.attempt_log if a.start < lo]
        assert any(a.procs == full_cap for a in before)

    def test_drop_to_half_and_recover_acceptance(self):
        # The acceptance scenario: P -> P/2 mid-run and back, with retries;
        # the runtime invariant checker (enabled by default for fault runs)
        # and the post-hoc validator must both accept the result.
        P = 32
        factory = RandomModelFactory(family="general", seed=3)
        graph = cholesky(6, factory)
        scheduler = OnlineScheduler.for_family("general", P)
        plain = scheduler.run(graph)
        trace = FaultTrace.from_downtimes(
            [(p, plain.makespan * 0.2, plain.makespan * 0.6) for p in range(P // 2)]
        )
        result = scheduler.run(graph, faults=trace, retry=RetryPolicy(checkpoint=True))
        validate_result(result, result.graph)
        assert result.min_capacity() == P // 2
        assert result.capacity_timeline[0] == (0.0, P)
        assert result.capacity_timeline[-1][1] == P
        assert result.makespan >= plain.makespan * 0.999

    def test_full_outage_waits_for_recovery(self):
        graph = chain(3, amdahl)
        scheduler = OnlineScheduler.for_family("amdahl", 4)
        plain = scheduler.run(graph)
        outage_start = plain.makespan / 2
        outage = plain.makespan  # all processors down for a while
        faults = BurstFaultModel([outage_start], fraction=1.0, downtime=outage)
        result = scheduler.run(graph, faults=faults)
        validate_result(result, result.graph)
        assert result.min_capacity() == 0
        # Nothing can run during the outage window.
        for a in result.attempt_log:
            assert not (outage_start <= a.start < outage_start + outage)
        assert result.makespan > plain.makespan

    def test_full_outage_defers_the_recap_to_recovery(self):
        # The first failure of the burst kills the running attempt, whose
        # retry is allocated inside the kill for the 3 processors still up.
        # No queue pass consults the allocator while none is up; the
        # recovery re-caps the retry once, for all 4.
        graph = chain(3, amdahl)
        scheduler = OnlineScheduler.for_family("amdahl", 4)
        outage_start = scheduler.run(graph).makespan / 2
        tracer = CollectingTracer()
        faults = BurstFaultModel([outage_start], fraction=1.0, downtime=1.0)
        scheduler.run(graph, faults=faults, tracer=tracer)
        decided = [
            (e.time, e.capacity, e.attempt)
            for e in tracer.of_type(AllocationDecided)
            if outage_start <= e.time <= outage_start + 1.0
        ]
        assert decided == [(outage_start, 3, 2), (outage_start + 1.0, 4, 2)]

    def test_initial_faults_shrink_platform_before_reveal(self):
        graph = single_task_graph(RooflineModel(w=10.0, max_parallelism=64))
        P = 32
        scheduler = OnlineScheduler.for_family("roofline", P)
        trace = FaultTrace.from_downtimes([(p, 0.0, None) for p in range(16)])
        result = scheduler.run(graph, faults=trace)
        mu = mu_for_family("roofline")
        assert result.capacity_timeline[0] == (0.0, 16)
        assert result.schedule["t"].procs <= math.ceil(mu * 16)

    def test_deadlock_without_recovery_raises(self):
        graph = chain(2, amdahl)
        scheduler = OnlineScheduler.for_family("amdahl", 2)
        trace = FaultTrace.from_downtimes([(0, 0.5, None), (1, 0.5, None)])
        with pytest.raises(SimulationError, match="deadlock"):
            scheduler.run(graph, faults=trace)


class _RogueAllocator(Allocator):
    """Ignores the platform size it is given (for the start-time guard)."""

    name = "rogue"

    def __init__(self, procs: int) -> None:
        self.procs = procs

    def allocate(self, model, P, *, free=None):
        return Allocation(initial=self.procs, final=self.procs)


class TestStartTimeValidation:
    def test_overpacking_allocator_raises_at_recap(self):
        # Admitted legally on P=8, but after the platform halves the rogue
        # allocator still demands 8 processors: the engine must refuse with
        # a clear error instead of silently over-packing.
        graph = chain(3, amdahl)
        scheduler = ListScheduler(8, _RogueAllocator(8))
        trace = FaultTrace.from_downtimes([(p, 0.5, None) for p in range(4)])
        with pytest.raises(SimulationError, match="live capacity"):
            scheduler.run(graph, faults=trace, check_invariants=False)

    def test_plain_reveal_time_check_still_applies(self, small_graph):
        scheduler = ListScheduler(4, _RogueAllocator(8))
        with pytest.raises(SimulationError, match="infeasible"):
            scheduler.run(small_graph)


class TestDeterministicReplay:
    def test_same_seed_same_run(self):
        factory = RandomModelFactory(family="amdahl", seed=4)
        graph = fork_join(6, factory, stages=2)
        scheduler = OnlineScheduler.for_family("amdahl", 8)
        plain = scheduler.run(graph)

        def run_once():
            faults = ExponentialFaultModel(
                plain.makespan / 2,
                mttr=plain.makespan / 8,
                horizon=plain.makespan * 20,
                seed=77,
            )
            return scheduler.run(graph, faults=faults)

        a, b = run_once(), run_once()
        assert a.makespan == b.makespan
        assert a.attempt_log == b.attempt_log
        assert a.capacity_timeline == b.capacity_timeline

    def test_different_seeds_differ(self):
        graph = chain(10, amdahl)
        scheduler = OnlineScheduler.for_family("amdahl", 4)
        plain = scheduler.run(graph)

        def run_with(seed):
            faults = ExponentialFaultModel(
                plain.makespan / 4,
                mttr=plain.makespan / 10,
                horizon=plain.makespan * 30,
                seed=seed,
            )
            return scheduler.run(graph, faults=faults)

        assert run_with(1).makespan != run_with(2).makespan

    def test_failure_source_seed_replay(self):
        graph = chain(8, amdahl)
        scheduler = OnlineScheduler.for_family("amdahl", 8)
        runs = [
            scheduler.run(FailureInjectingSource(graph, 0.4, seed=123)) for _ in range(2)
        ]
        assert runs[0].makespan == runs[1].makespan
        assert len(runs[0].schedule) == len(runs[1].schedule)


class TestComposition:
    def test_task_failures_and_processor_faults_compose(self):
        # End-of-attempt task failures (source level) stacked with
        # processor faults (engine level) in one run.
        graph = chain(5, amdahl)
        scheduler = OnlineScheduler.for_family("amdahl", 8)
        plain = scheduler.run(graph)
        source = FailureInjectingSource(graph, 0.3, seed=5)
        faults = ExponentialFaultModel(
            plain.makespan, mttr=plain.makespan / 5, horizon=plain.makespan * 50, seed=6
        )
        result = scheduler.run(source, faults=faults, retry=RetryPolicy(checkpoint=True))
        validate_result(result, result.graph)

    def test_timed_releases_with_faults(self):
        releases = [(float(i), ("r", i), AmdahlModel(4.0, 1.0)) for i in range(5)]
        source = ReleasedTaskSource(releases)
        scheduler = OnlineScheduler.for_family("amdahl", 4)
        trace = FaultTrace.from_downtimes([(0, 1.5, 4.0), (1, 2.0, 5.0)])
        result = scheduler.run(source, faults=trace)
        validate_result(result, result.graph)
        assert len(result.schedule) == 5


@st.composite
def fault_scenarios(draw):
    family = draw(st.sampled_from(MODEL_FAMILIES))
    seed = draw(st.integers(min_value=0, max_value=2000))
    factory = RandomModelFactory(family=family, seed=seed)
    if draw(st.booleans()):
        graph = fork_join(draw(st.integers(2, 6)), factory, stages=draw(st.integers(1, 2)))
    else:
        graph = layered_random(
            draw(st.integers(1, 3)), draw(st.integers(2, 5)), factory, seed=seed
        )
    P = draw(st.sampled_from([3, 8, 17]))
    mtbf_scale = draw(st.floats(0.3, 3.0))
    policy = RetryPolicy(
        backoff_base=draw(st.sampled_from([0.0, 0.1, 1.0])),
        checkpoint=draw(st.booleans()),
    )
    return graph, P, mtbf_scale, policy, seed


class TestFaultProperties:
    @settings(max_examples=25, deadline=None)
    @given(fault_scenarios())
    def test_any_fault_trace_yields_valid_run(self, scenario):
        """Property: fault trace x retry policy => invariant-clean schedule.

        Recoveries are always generated (finite MTTR), so runs terminate;
        the runtime checker is on by default and the post-hoc validator
        re-checks the telemetry.
        """
        graph, P, mtbf_scale, policy, seed = scenario
        scheduler = OnlineScheduler.for_family("general", P)
        plain = scheduler.run(graph)
        faults = ExponentialFaultModel(
            mtbf_scale * plain.makespan,
            mttr=0.2 * plain.makespan,
            horizon=plain.makespan * 100,
            seed=seed,
        )
        result = scheduler.run(graph, faults=faults, retry=policy)
        validate_result(result, result.graph)
        assert result.makespan >= 0
        counts = result.attempt_counts()
        assert set(counts) == set(graph)
        # Every killed attempt must have a later attempt of the same task.
        finals = {a.task_id: a for a in result.attempt_log if a.completed}
        assert set(finals) == set(graph)
