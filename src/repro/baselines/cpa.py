"""CPA: the Critical-Path-and-Area offline scheduler.

The classic two-phase heuristic of Radulescu & van Gemund for moldable
task graphs (the practical cousin of the Lepère/Jansen-Zhang allotment
algorithms the paper cites as offline state of the art):

1. **Allotment phase** — start every task at one processor; while the
   critical path :math:`C` exceeds the average area :math:`A/P`, give one
   more processor to the critical-path task with the best
   time-reduction-per-area ratio.  This explicitly balances the two
   Lemma-2 lower-bound components against each other.
2. **Scheduling phase** — list-schedule with the fixed allotment and
   bottom-level (critical-path) priority.

Offline on both counts: it needs the whole graph to find critical paths,
and it tunes allotments globally before anything runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.priorities import bottom_level
from repro.exceptions import InvalidParameterError
from repro.graph.analysis import heaviest_path
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.allocation import Allocation, Allocator
from repro.sim.engine import ListScheduler, SimulationResult
from repro.types import TaskId
from repro.util.validation import check_positive_int

if TYPE_CHECKING:
    from repro.speedup.base import SpeedupModel

__all__ = ["cpa_allotment", "cpa_schedule", "AllotmentAllocator"]


class AllotmentAllocator(Allocator):
    """Fixed per-task allotments (task-aware allocator)."""

    name = "allotment"

    def __init__(self, allotment: dict[TaskId, int]) -> None:
        self.allotment = dict(allotment)

    def allocate(
        self, model: "SpeedupModel", P: int, *, free: int | None = None
    ) -> Allocation:  # pragma: no cover
        raise InvalidParameterError(
            "AllotmentAllocator needs task identity; use it with ListScheduler, "
            "which calls allocate_task"
        )

    def allocate_task(self, task: Task, P: int, *, free: int | None = None) -> Allocation:
        try:
            p = self.allotment[task.id]
        except KeyError:
            raise InvalidParameterError(
                f"no allotment for task {task.id!r}"
            ) from None
        return Allocation(initial=p, final=p)


def cpa_allotment(
    graph: TaskGraph, P: int, *, max_iterations: int | None = None
) -> dict[TaskId, int]:
    """Phase 1: compute CPA's per-task processor allotment.

    Iterates at most ``max_iterations`` times (default ``n * min(P, 64)``,
    a generous budget that the balance condition normally stops long
    before).  Each step's critical path ends at the first longest task in
    :meth:`TaskGraph.topological_order` and runs back along
    :func:`~repro.graph.analysis.heaviest_path`.
    """
    P = check_positive_int(P, "P")
    n = len(graph)
    if n == 0:
        return {}
    if max_iterations is None:
        max_iterations = n * min(P, 64)

    compiled = graph.compiled()
    models = [task.model for task in compiled.tasks]
    p_max = [m.max_useful_processors(P) for m in models]
    alloc = [1] * n
    times = [m.time(1) for m in models]
    area = sum(m.area(1) for m in models)
    topological = list(map(compiled.index.__getitem__, graph.topological_order()))
    # Per slot, the (gain, extra area, time) of one more processor, kept
    # until the slot grows; gain is None where growing cannot help.
    steps: list[tuple[float | None, float, float] | None] = [None] * n

    for _ in range(max_iterations):
        _, ends = graph.path_ends(times)
        tail = max(topological, key=ends.__getitem__)
        if ends[tail] <= area / P:
            break
        # Best time-reduction per unit of extra area among growable CP tasks.
        best, best_gain = None, 0.0
        for s in heaviest_path(graph, ends, tail):
            step = steps[s]
            if step is None:
                p = alloc[s]
                if p >= p_max[s]:
                    step = (None, 0.0, 0.0)
                else:
                    t = models[s].time(p + 1)
                    dt = times[s] - t
                    da = models[s].area(p + 1) - models[s].area(p)
                    step = (dt / max(da, 1e-12) if dt > 0 else None, da, t)
                steps[s] = step
            gain = step[0]
            if gain is not None and gain > best_gain:
                best, best_gain = s, gain
        if best is None:
            break  # critical path saturated: no further useful processors
        step = steps[best]
        assert step is not None  # filled on the path above
        area += step[1]
        alloc[best] += 1
        times[best] = step[2]
        steps[best] = None
    return {task.id: p for task, p in zip(compiled.tasks, alloc)}


def cpa_schedule(graph: TaskGraph, P: int) -> SimulationResult:
    """Run both CPA phases and return the resulting schedule."""
    P = check_positive_int(P, "P")
    scheduler = ListScheduler(
        P, AllotmentAllocator(cpa_allotment(graph, P)), priority=bottom_level(graph, P)
    )
    return scheduler.run(graph)
