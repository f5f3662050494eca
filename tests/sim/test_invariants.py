"""Tests for the runtime invariant checker and the post-hoc validator."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OnlineScheduler
from repro.exceptions import InvariantViolationError
from repro.graph import TaskGraph
from repro.graph.generators import chain
from repro.resilience import FaultTrace, RetryPolicy
from repro.sim import AttemptRecord, InvariantChecker, Schedule, validate_result
from repro.sim.engine import SimulationResult
from repro.speedup import AmdahlModel


def amdahl():
    return AmdahlModel(8.0, 1.0)


class TestCheckerHooks:
    def test_clean_lifecycle(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_start(0.0, "a", 2)
        c.on_complete(1.0, "a")
        c.on_end(1.0)
        assert c.events_checked == 4

    def test_time_moving_backwards(self):
        c = InvariantChecker(4)
        c.on_reveal(5.0, "a")
        with pytest.raises(InvariantViolationError, match="backwards"):
            c.on_start(4.0, "a", 1)

    def test_start_before_reveal(self):
        c = InvariantChecker(4)
        with pytest.raises(InvariantViolationError, match="revealed"):
            c.on_start(0.0, "ghost", 1)

    def test_self_overlap(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_start(0.0, "a", 1)
        with pytest.raises(InvariantViolationError, match="self-overlap"):
            c.on_start(0.5, "a", 1)

    def test_start_after_complete(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_start(0.0, "a", 1)
        c.on_complete(1.0, "a")
        with pytest.raises(InvariantViolationError, match="after completing"):
            c.on_start(2.0, "a", 1)

    def test_allocation_exceeds_live_capacity(self):
        c = InvariantChecker(4)
        c.on_capacity(0.0, 2)
        c.on_reveal(0.0, "a")
        with pytest.raises(InvariantViolationError, match=r"outside \[1, P_t=2\]"):
            c.on_start(0.0, "a", 3)

    def test_overpacking_rejected(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_reveal(0.0, "b")
        c.on_start(0.0, "a", 3)
        with pytest.raises(InvariantViolationError, match="exceed"):
            c.on_start(0.0, "b", 2)

    def test_capacity_drop_without_kill(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_start(0.0, "a", 4)
        with pytest.raises(InvariantViolationError, match="victims"):
            c.on_capacity(1.0, 2)

    def test_kill_then_capacity_drop_ok(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_start(0.0, "a", 4)
        c.on_kill(1.0, "a")
        c.on_capacity(1.0, 2)
        assert c.capacity == 2

    def test_kill_of_non_running(self):
        c = InvariantChecker(4)
        with pytest.raises(InvariantViolationError, match="not running"):
            c.on_kill(0.0, "a")

    def test_complete_of_non_running(self):
        c = InvariantChecker(4)
        with pytest.raises(InvariantViolationError, match="not running"):
            c.on_complete(0.0, "a")

    def test_end_with_running_task(self):
        c = InvariantChecker(4)
        c.on_reveal(0.0, "a")
        c.on_start(0.0, "a", 1)
        with pytest.raises(InvariantViolationError, match="still running"):
            c.on_end(1.0)

    def test_capacity_out_of_range(self):
        c = InvariantChecker(4)
        with pytest.raises(InvariantViolationError, match="outside"):
            c.on_capacity(0.0, 5)

    def test_error_carries_context(self):
        c = InvariantChecker(4)
        try:
            c.on_kill(3.0, "a")
        except InvariantViolationError as err:
            assert err.time == 3.0
            assert err.event == "kill"
            assert err.task_id == "a"
        else:  # pragma: no cover
            pytest.fail("expected InvariantViolationError")


class TestEngineIntegration:
    def test_plain_run_with_checker_enabled(self, small_graph):
        result = OnlineScheduler.for_family("amdahl", 8).run(
            small_graph, check_invariants=True
        )
        result.schedule.validate(small_graph)

    def test_faulty_run_passes_checker(self):
        graph = chain(6, amdahl)
        trace = FaultTrace.from_downtimes([(p, 2.0, 6.0) for p in range(4)])
        result = OnlineScheduler.for_family("amdahl", 8).run(
            graph, faults=trace, retry=RetryPolicy(checkpoint=True)
        )
        validate_result(result, result.graph)


def _result_with(attempts, capacity_timeline, P=4, graph=None, schedule=None):
    if schedule is None:
        schedule = Schedule(P)
        for a in attempts:
            if a.completed:
                schedule.add(a.task_id, a.start, a.end, a.procs)
    return SimulationResult(
        schedule,
        {},
        graph if graph is not None else TaskGraph(),
        {},
        attempt_log=tuple(attempts),
        capacity_timeline=tuple(capacity_timeline),
    )


class TestValidateResult:
    def test_plain_result_without_telemetry(self, small_graph):
        result = OnlineScheduler.for_family("amdahl", 8).run(small_graph)
        validate_result(result, small_graph, check_durations=True)

    def test_detects_self_overlap(self):
        attempts = [
            AttemptRecord("a", 1, 0.0, 5.0, 1, False),
            AttemptRecord("a", 2, 4.0, 6.0, 1, True),
        ]
        with pytest.raises(InvariantViolationError, match="before attempt"):
            validate_result(_result_with(attempts, [(0.0, 4)]))

    def test_detects_capacity_overrun(self):
        attempts = [
            AttemptRecord("a", 1, 0.0, 10.0, 3, True),
            AttemptRecord("b", 1, 0.0, 10.0, 3, True),
        ]
        with pytest.raises(InvariantViolationError, match="busy"):
            validate_result(_result_with(attempts, [(0.0, 4)]))

    def test_detects_allocation_beyond_live_capacity(self):
        attempts = [AttemptRecord("a", 1, 5.0, 6.0, 4, True)]
        with pytest.raises(InvariantViolationError, match="live capacity"):
            validate_result(_result_with(attempts, [(0.0, 4), (4.0, 2), (7.0, 4)]))

    def test_detects_double_completion(self):
        attempts = [
            AttemptRecord("a", 1, 0.0, 1.0, 1, True),
            AttemptRecord("a", 2, 2.0, 3.0, 1, True),
        ]
        schedule = Schedule(4)
        schedule.add("a", 0.0, 1.0, 1)
        with pytest.raises(InvariantViolationError, match="more than once"):
            validate_result(_result_with(attempts, [(0.0, 4)], schedule=schedule))

    def test_detects_schedule_disagreement(self):
        attempts = [AttemptRecord("a", 1, 0.0, 1.0, 1, True)]
        schedule = Schedule(4)
        schedule.add("a", 0.0, 2.0, 1)  # end disagrees with the attempt log
        with pytest.raises(InvariantViolationError, match="disagrees"):
            validate_result(_result_with(attempts, [(0.0, 4)], schedule=schedule))

    def test_respects_capacity_recovery_windows(self):
        # 2 procs busy while capacity is 2: legal only inside the window.
        attempts = [AttemptRecord("a", 1, 4.0, 6.0, 2, True)]
        validate_result(_result_with(attempts, [(0.0, 4), (3.0, 2), (7.0, 4)]))


def _loop_capacity_violation(attempts, timeline, tol):
    """Per-attempt loop form of the capacity checks (the reference).

    Returns the message of the first capacity violation, or ``None``.
    """
    cap_times = [t for t, _ in timeline]
    cap_values = [c for _, c in timeline]
    points = sorted(
        {a.start for a in attempts} | {a.end for a in attempts} | set(cap_times)
    )
    if len(points) > 1:
        breakpoints = np.asarray(points, dtype=float)
        usage = np.zeros(len(points) - 1, dtype=np.int64)
        for a in attempts:
            i0 = np.searchsorted(breakpoints, a.start)
            i1 = np.searchsorted(breakpoints, a.end)
            usage[i0:i1] += a.procs
        cap_idx = np.searchsorted(cap_times, breakpoints[:-1], side="right") - 1
        cap_idx = np.clip(cap_idx, 0, len(cap_values) - 1)
        capacity = np.asarray(cap_values, dtype=np.int64)[cap_idx]
        bad = (usage > capacity) & (np.diff(breakpoints) > tol)
        if bad.any():
            idx = int(np.argmax(bad))
            return (
                f"{int(usage[idx])} processors busy in "
                f"[{breakpoints[idx]:.6g}, {breakpoints[idx + 1]:.6g}) with live "
                f"capacity {int(capacity[idx])}"
            )
    for a in attempts:
        idx = max(int(np.searchsorted(cap_times, a.start, side="right")) - 1, 0)
        if a.procs > cap_values[idx]:
            return f"attempt {a.attempt} allocated {a.procs} > live capacity {cap_values[idx]}"
    return None


class TestVectorizedCapacityReplay:
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 6), st.integers(1, 4)),
            min_size=0,
            max_size=12,
        ),
        caps=st.lists(
            st.tuples(st.integers(1, 15), st.integers(0, 4)), max_size=5
        ),
        first_cap=st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_attempt_loop(self, spans, caps, first_cap):
        attempts = [
            AttemptRecord(i, 1, float(s), float(s + d), p, True)
            for i, (s, d, p) in enumerate(spans)
        ]
        timeline = [(0.0, first_cap)] + sorted(
            {float(t): c for t, c in caps}.items()
        )
        span = max((a.end for a in attempts), default=0.0)
        expected = _loop_capacity_violation(attempts, timeline, 1e-9 * max(1.0, span))
        result = _result_with(attempts, timeline)
        if expected is None:
            validate_result(result)
        else:
            with pytest.raises(InvariantViolationError, match=re.escape(expected)):
                validate_result(result)


class TestAttemptLogHoles:
    def test_schedule_entry_without_completed_attempt_rejected(self):
        # b is in the schedule but not in the attempt log: on P=4 the two
        # 3-processor entries overlap, which Schedule.validate rejects.
        schedule = Schedule(4)
        schedule.add("a", 0.0, 10.0, 3)
        schedule.add("b", 0.0, 10.0, 3)
        attempts = [AttemptRecord("a", 1, 0.0, 10.0, 3, True)]
        with pytest.raises(InvariantViolationError, match="no completed attempt"):
            validate_result(_result_with(attempts, [(0.0, 4)], schedule=schedule))

    def test_attempts_out_of_start_order_rejected(self):
        attempts = [
            AttemptRecord("a", 3, 0.0, 1.0, 1, False),
            AttemptRecord("a", 1, 2.0, 3.0, 1, False),
            AttemptRecord("a", 2, 4.0, 5.0, 1, True),
        ]
        with pytest.raises(InvariantViolationError, match="not numbered"):
            validate_result(_result_with(attempts, [(0.0, 4)]))

    def test_killed_attempt_never_retried_rejected(self):
        attempts = [AttemptRecord("a", 1, 0.0, 1.0, 1, False)]
        with pytest.raises(InvariantViolationError, match="never retried"):
            validate_result(_result_with(attempts, [(0.0, 4)]))
