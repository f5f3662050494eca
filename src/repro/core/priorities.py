"""Waiting-queue priority rules for the list scheduler.

Algorithm 1 inserts available tasks "without any priority considerations"
(FIFO), but the paper notes that "in practice certain priority rules may
work better".  This module provides the classic rules; each is a factory
returning a key function compatible with
:class:`~repro.sim.engine.ListScheduler`'s ``priority`` parameter (smaller
key = earlier in the queue).

Online rules (:func:`largest_work_first`, :func:`smallest_allocation_first`,
...) use only information the online model reveals.  :func:`bottom_level`
requires the full graph, so it is only legitimate for offline baselines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.graph.analysis import bottom_levels
from repro.graph.taskgraph import TaskGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.allocator import Allocation
    from repro.graph.task import Task

__all__ = [
    "fifo",
    "largest_work_first",
    "longest_time_first",
    "smallest_allocation_first",
    "largest_allocation_first",
    "bottom_level",
    "PRIORITY_RULES",
]

PriorityRule = Callable[["Task", "Allocation"], object]


def fifo() -> None:
    """The paper's default: no priority (insertion order).

    Returns ``None``, which the engine interprets as pure FIFO.
    """
    return None


def largest_work_first() -> PriorityRule:
    """Prefer tasks with the largest single-processor area :math:`a(1)`.

    A classic LPT-style rule: big tasks go first so small ones can fill the
    gaps they leave.
    """

    def key(task: "Task", alloc: "Allocation") -> float:
        return -task.model.area(1)

    return key


def longest_time_first() -> PriorityRule:
    """Prefer tasks with the longest execution time at their allocation."""

    def key(task: "Task", alloc: "Allocation") -> float:
        return -task.model.time(alloc.final)

    return key


def smallest_allocation_first() -> PriorityRule:
    """Prefer narrow tasks: they pack densely and keep utilization high."""

    def key(task: "Task", alloc: "Allocation") -> int:
        return alloc.final

    return key


def largest_allocation_first() -> PriorityRule:
    """Prefer wide tasks: start the hard-to-place work while space exists."""

    def key(task: "Task", alloc: "Allocation") -> int:
        return -alloc.final

    return key


def bottom_level(graph: TaskGraph, P: int) -> PriorityRule:
    """Critical-path priority (offline: needs the whole graph upfront).

    Tasks with more minimum-time work below them in the graph go first —
    the rule behind HEFT and most static list schedulers.
    """
    levels = bottom_levels(graph, P)

    def key(task: "Task", alloc: "Allocation") -> float:
        return -levels[task.id]

    return key


#: Name -> zero-argument factory, for the online rules only.
PRIORITY_RULES: dict[str, Callable[[], PriorityRule | None]] = {
    "fifo": fifo,
    "largest-work": largest_work_first,
    "longest-time": longest_time_first,
    "narrowest": smallest_allocation_first,
    "widest": largest_allocation_first,
}
