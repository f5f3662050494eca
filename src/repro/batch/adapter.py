"""The batch engine behind the reference engine's result types.

Two entry points:

* :func:`materialize_result` — convert one run of a finished
  :class:`~repro.batch.engine.BatchEngine` back into the reference
  engine's :class:`~repro.sim.engine.SimulationResult` (object schedule,
  allocation dict, reveal times, stats).
* :func:`run_batch` — simulate many ``(graph, P)`` runs in one
  vectorized pass.

The batch engine covers the paper's core setting: fault-free FIFO list
scheduling of a static graph with allocators that are pure functions of
``(model, P)``.  An allocator that reads the live free count raises
:class:`~repro.exceptions.BatchUnsupportedError` at compilation.  Faults,
priority rules, other graph sources, invariant checks and tracing are the
reference engine's (:meth:`~repro.sim.engine.ListScheduler.run`) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.batch.engine import BatchEngine
from repro.batch.layout import BatchCompiler, compile_batch
from repro.graph.taskgraph import TaskGraph
from repro.obs.metrics import active_metrics
from repro.sim.allocation import Allocation, Allocator
from repro.sim.engine import EngineStats, SimulationResult
from repro.sim.schedule import Schedule

__all__ = ["BatchOutcome", "materialize_result", "run_batch"]


def materialize_result(
    engine: BatchEngine, b: int, graph: TaskGraph
) -> SimulationResult:
    """Convert run ``b`` of a finished engine into a ``SimulationResult``.

    Entry orders are reconstructed from the engine's sequence arrays so
    the result is indistinguishable from the reference engine's: schedule
    entries in start order, allocation/reveal dicts in reveal order.
    """
    compiled = engine.compiled
    run = compiled.runs[b]
    s = run.structure
    n = s.n
    ids = s.ids
    tags = s.tags
    start_t = engine.start_t[b]
    end_t = engine.end_t[b]
    demand = compiled.demand[b]
    initial = compiled.initial[b]

    schedule = Schedule(run.P)
    add = schedule.add
    start_order = np.argsort(engine.start_seq.reshape(engine.B, engine.N)[b, :n])
    for c in start_order.tolist():  # repro-lint: disable=RL008 -- per-task object materialization
        add(
            ids[c],
            float(start_t[c]),
            float(end_t[c]),
            int(demand[c]),
            initial_alloc=int(initial[c]),
            tag=tags[c],
        )

    allocations: dict = {}
    revealed_at: dict = {}
    reveal_t = engine.reveal_t[b]
    reveal_order = np.argsort(engine.reveal_seq[b, :n])
    for c in reveal_order.tolist():  # repro-lint: disable=RL008 -- per-task object materialization
        allocations[ids[c]] = Allocation(int(initial[c]), int(demand[c]))
        revealed_at[ids[c]] = float(reveal_t[c])

    # The scan counters measure *this* engine's work (window passes and
    # window elements examined); identical schedules legitimately report
    # different queue counters than the reference loop.
    stats = EngineStats(
        events=int(engine.ev_count[b]),
        tasks_started=n,
        queue_scans=int(engine.scan_passes[b]),
        scans_skipped=0,
        scan_steps=int(engine.scan_elems[b]),
        allocator_calls=run.allocator_calls,
        alloc_cache_hits=run.alloc_cache_hits,
        alloc_cache_misses=run.alloc_cache_misses,
        alloc_cache_bypasses=run.alloc_cache_bypasses,
    )
    return SimulationResult(schedule, allocations, graph, revealed_at, stats=stats)


@dataclass(frozen=True)
class BatchOutcome:
    """Everything :func:`run_batch` produces.

    ``makespans`` is always populated (one float per run, in input
    order); ``results`` holds full per-run ``SimulationResult`` objects
    unless materialization was switched off for throughput measurements.
    """

    makespans: np.ndarray
    results: tuple[SimulationResult, ...]
    engine: BatchEngine

    @property
    def B(self) -> int:
        return int(self.makespans.shape[0])


def run_batch(
    items: Sequence[tuple[TaskGraph, int]],
    allocator: Allocator,
    *,
    compiler: BatchCompiler | None = None,
    materialize: bool = True,
) -> BatchOutcome:
    """Simulate every ``(graph, P)`` run in one vectorized pass.

    Runs are independent — distinct graphs, platform sizes, and task
    counts mix freely in one batch (shorter runs are padded and masked).
    Passing one graph object many times shares its compiled structure.

    With ``materialize=False`` only the makespan vector is produced,
    skipping the per-task Python object construction — the configuration
    throughput benchmarks use, and the right choice whenever only
    aggregate statistics of a sweep are needed.
    """
    compiled = compile_batch(items, allocator, compiler)
    engine = BatchEngine(compiled).run()
    results: tuple[SimulationResult, ...] = ()
    if materialize:
        results = tuple(
            materialize_result(engine, b, graph)
            for b, (graph, _) in enumerate(items)
        )
    registry = active_metrics()
    if registry is not None:
        if materialize:
            for result in results:  # repro-lint: disable=RL008 -- observability fan-out
                assert result.stats is not None
                registry.record_engine_stats(result.stats.as_dict())
        registry.counter(
            "batch.runs", help="simulation runs completed by the batch engine"
        ).inc(engine.B)
        registry.counter(
            "batch.tasks", help="tasks scheduled by the batch engine"
        ).inc(compiled.total_tasks)
        registry.counter(
            "batch.compactions", help="queue compaction passes in the batch kernel"
        ).inc(int(engine.compactions.sum()))
        registry.counter(
            "batch.block_skips",
            help="scan waves ruled out by the block-minimum bound",
        ).inc(int(engine.block_skips.sum()))
    return BatchOutcome(
        makespans=engine.makespans, results=results, engine=engine
    )
