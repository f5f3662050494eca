"""The fast path is exact: every experiment digest matches the seed engine.

``golden_digests.json`` was captured by running the full experiment
registry (plus one fault-injected resilient run) on the engine *before*
the fast-path optimizations — allocation memoization, incremental queue
scanning, sorted priority insertion, vectorized models — landed.  These
tests re-run everything on the optimized engine and require byte-identical
:meth:`~repro.experiments.registry.ExperimentReport.digest` values:
optimizations may only change how fast schedules are computed, never the
schedules themselves.

If a digest legitimately must change (a *algorithmic* change, not an
optimization), re-capture the golden file and say why in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.registry import REGISTRY, run_experiment

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


def test_golden_covers_registry():
    """Every registered experiment has a golden digest (and vice versa)."""
    assert set(GOLDEN) == set(REGISTRY) | {"__resilient_engine__"}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_experiment_digest_unchanged(name):
    assert run_experiment(name).digest() == GOLDEN[name], (
        f"experiment {name!r} no longer reproduces its pre-fast-path digest; "
        "an engine 'optimization' changed a schedule"
    )


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_experiment_digest_unchanged_under_tracing(name):
    """Tracing is observational: traced runs are byte-identical to golden.

    Runs every registry experiment with an ambient event-collecting tracer
    installed — the most intrusive tracer configuration (every emission
    site fires) — and requires the exact pre-tracing digests.
    """
    from repro.obs.events import CollectingTracer, use_tracer

    tracer = CollectingTracer()
    with use_tracer(tracer):
        digest = run_experiment(name).digest()
    assert digest == GOLDEN[name], (
        f"experiment {name!r} changed its schedule when traced; "
        "tracing must be purely observational"
    )


#: Fault-run digests captured while faults still had a loop of their own.
#: They live here, not in ``golden_digests.json``, whose key set is the
#: registry (see :func:`test_golden_covers_registry`).
RESILIENT_TRACE_DIGEST = "6e012b80dd4252c99bef5a949032f7605af4a1ea2c7b06bb788612b1e51c955f"
RELEASED_FAULT_DIGEST = "a2d8eff207dfa95bee98557e5d4bf4f71e049536d83806d2a697bcab3f64f774"
RELEASED_FAULT_TRACE_DIGEST = "dda7cefbb8fb032d512d2d83f245df09b3a718b62c4826e04f8941c87f60a989"


def _fault_run_digest(result) -> str:
    from repro.runtime.serialization import content_digest
    from repro.sim.schedule_io import schedule_to_dict

    payload = {
        "schedule": schedule_to_dict(result.schedule),
        "allocations": {
            str(k): (a.initial, a.final)
            for k, a in sorted(result.allocations.items(), key=lambda kv: str(kv[0]))
        },
        "attempts": [
            (str(r.task_id), r.attempt, r.start, r.end, r.procs, r.completed)
            for r in result.attempt_log
        ],
        "capacity": result.capacity_timeline,
    }
    return content_digest(payload)


def _resilient_digest(tracer=None) -> str:
    from repro.core.scheduler import OnlineScheduler
    from repro.graph.generators import layered_random
    from repro.resilience.faults import FaultTrace
    from repro.resilience.retry import RetryPolicy
    from repro.speedup import RandomModelFactory

    graph = layered_random(
        6,
        8,
        RandomModelFactory(family="communication", seed=7),
        edge_probability=0.3,
        seed=7,
    )
    trace = FaultTrace(
        [(5.0, "fail", 3), (9.0, "recover", 3), (12.0, "fail", 0), (20.0, "recover", 0)]
    )
    scheduler = OnlineScheduler.for_family("communication", 16)
    result = scheduler.run(
        graph, faults=trace, retry=RetryPolicy(max_attempts=5), tracer=tracer
    )
    assert result.killed_attempts() == 1  # the trace really injects a kill
    return _fault_run_digest(result)


def _released_fault_run(tracer=None):
    """Timed releases, mid-run faults, backoff + checkpoint retries, a priority.

    The priority rule reads the allocation, so re-capped entries move in
    the queue; the initial fault shrinks the platform before the first
    reveals, and capacity later returns to ``P``.
    """
    from repro.core.priorities import largest_allocation_first
    from repro.core.scheduler import OnlineScheduler
    from repro.resilience.faults import FaultTrace
    from repro.resilience.retry import RetryPolicy
    from repro.sim import ReleasedTaskSource
    from repro.speedup import RandomModelFactory

    factory = RandomModelFactory(family="general", seed=11)
    releases = [(0.25 * (i // 2), ("r", i), factory()) for i in range(40)]
    trace = FaultTrace.from_downtimes(
        [
            (0, 0.75, 3.0),
            (3, 1.25, 2.5),
            (5, 1.25, 5.0),
            (9, 2.0, 4.5),
            (1, 3.0, 3.5),
            (12, 0.0, 1.0),
            (14, 3.5, 6.0),
        ]
    )
    scheduler = OnlineScheduler.for_family(
        "general", 16, priority=largest_allocation_first()
    )
    return scheduler.run(
        ReleasedTaskSource(releases),
        faults=trace,
        retry=RetryPolicy(checkpoint=True, backoff_base=0.25),
        tracer=tracer,
    )


def test_resilient_engine_digest_unchanged():
    """Fault-injected path: kills, retries, and re-allocations are exact too."""
    assert _resilient_digest() == GOLDEN["__resilient_engine__"]


def test_resilient_engine_digest_unchanged_under_tracing():
    """The resilient path is observational under tracing too."""
    from repro.obs.events import CollectingTracer, FaultInjected, RetryScheduled

    tracer = CollectingTracer()
    assert _resilient_digest(tracer) == GOLDEN["__resilient_engine__"]
    # The stream really covered the resilience machinery while not
    # perturbing the schedule.
    assert tracer.of_type(FaultInjected)
    assert tracer.of_type(RetryScheduled)


def test_resilient_engine_event_stream_unchanged():
    """The traced resilient run emits the same events, payloads and order."""
    from repro.obs.events import CollectingTracer
    from repro.obs.export import trace_digest

    tracer = CollectingTracer()
    _resilient_digest(tracer)
    assert trace_digest(tracer.events) == RESILIENT_TRACE_DIGEST


def test_released_fault_run_digests_unchanged():
    """Second fault scenario: the backoff heap and timed releases under faults."""
    from repro.obs.events import CollectingTracer, RetryScheduled
    from repro.obs.export import trace_digest

    result = _released_fault_run()
    assert result.killed_attempts() == 6
    assert _fault_run_digest(result) == RELEASED_FAULT_DIGEST
    tracer = CollectingTracer()
    assert _fault_run_digest(_released_fault_run(tracer)) == RELEASED_FAULT_DIGEST
    assert trace_digest(tracer.events) == RELEASED_FAULT_TRACE_DIGEST
    assert all(event.delay > 0 for event in tracer.of_type(RetryScheduled))
