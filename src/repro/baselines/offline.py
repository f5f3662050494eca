"""Offline (oracle) baseline: critical-path-priority list scheduling.

An offline scheduler knows the whole graph in advance.  This baseline
exploits that knowledge by ordering the waiting queue by *bottom level* —
the length (in minimum execution times) of the longest path from a task to
a sink — the classic critical-path priority rule, combined with any
allocation strategy (Algorithm 2 by default).

It is *not* the optimal offline scheduler (that problem is NP-hard); the
empirical study uses it, together with Lemma 2's lower bound, to bracket
where the optimum can be.
"""

from __future__ import annotations

from repro.core.allocator import Allocator, LpaAllocator
from repro.core.constants import MU_STAR
from repro.core.priorities import bottom_level
from repro.graph.analysis import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.sim.engine import ListScheduler, SimulationResult
from repro.util.validation import check_positive_int

__all__ = ["bottom_levels", "offline_list_schedule"]


def offline_list_schedule(
    graph: TaskGraph,
    P: int,
    *,
    allocator: Allocator | None = None,
) -> SimulationResult:
    """Schedule ``graph`` with critical-path priority and full knowledge.

    Parameters
    ----------
    graph:
        The complete task graph (the oracle sees everything upfront).
    P:
        Number of processors.
    allocator:
        Allocation rule; defaults to Algorithm 2 with the general-model
        :math:`\\mu^*` (a robust default across model families).
    """
    P = check_positive_int(P, "P")
    if allocator is None:
        allocator = LpaAllocator(MU_STAR["general"])
    return ListScheduler(P, allocator, priority=bottom_level(graph, P)).run(graph)
