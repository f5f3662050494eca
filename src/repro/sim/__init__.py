"""Discrete-event scheduling simulator.

The engine (:class:`~repro.sim.engine.ListScheduler`) executes the
list-scheduling loop of Algorithm 1 against any *graph source* — a static
:class:`~repro.graph.TaskGraph` or a dynamic/adversarial source that reveals
tasks as their predecessors complete (the online model of Section 3.1).
Schedules are recorded as :class:`~repro.sim.schedule.Schedule` objects with
full feasibility validation, and :mod:`repro.sim.intervals` provides the
interval decomposition of Section 4.2 used to check the analysis.
"""

from repro.sim.allocation import Allocation, AllocationCacheInfo, Allocator
from repro.sim.schedule import Schedule, ScheduledTask
from repro.sim.sources import GraphSource, ReleasedTaskSource, StaticGraphSource
from repro.sim.engine import (
    AttemptRecord,
    EngineStats,
    ListScheduler,
    SimulationResult,
)
from repro.sim.intervals import IntervalDecomposition, decompose_intervals
from repro.sim.feasibility import InvariantChecker, validate_result

__all__ = [
    "Allocation",
    "AllocationCacheInfo",
    "Allocator",
    "Schedule",
    "ScheduledTask",
    "GraphSource",
    "StaticGraphSource",
    "ReleasedTaskSource",
    "ListScheduler",
    "SimulationResult",
    "AttemptRecord",
    "EngineStats",
    "IntervalDecomposition",
    "decompose_intervals",
    "InvariantChecker",
    "validate_result",
]
