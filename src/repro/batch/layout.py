# repro-lint: disable-file=RL008 -- compilation is the designated
# Python<->array boundary: it walks graph dicts and model objects exactly
# once per run to build the dense arrays the engine then operates on.
"""Graph/model compilation into the batch engine's dense array layout.

The batched engine (:mod:`repro.batch.engine`) operates exclusively on
NumPy structure-of-arrays; this module is the bridge from the repo's
object model (``TaskGraph`` / ``SpeedupModel`` / ``Allocator``) to that
layout.  Compilation happens in two stages:

* :func:`compile_structure` — everything that depends on the *graph*
  alone: insertion-ordered task ids, a CSR successor map, in-degrees, and
  the per-task :meth:`~repro.speedup.SpeedupModel.cache_key` grouping.
  Structures are cached per graph *object* (keyed on ``id(graph)``
  through a :class:`BatchCompiler`), so simulating one graph under many
  platform sizes — or replicating one scenario across a batch — compiles
  it once.
* :func:`compile_run` — everything that additionally depends on the
  platform size ``P`` and the allocator: the per-task processor counts
  and execution times.  Both are resolved *per cache-key group*, not per
  task: equal keys promise equal time functions, so each group costs one
  :meth:`~repro.sim.allocation.Allocator.allocate_cached` call and one
  ``model.time`` call, and the results are broadcast by a vectorized
  gather.  Models without a cache key fall back to per-task calls, exactly
  like the reference engine's allocation cache bypasses.

Allocations come from the reference engine's entry point and durations
from the *scalar* ``model.time(procs)`` — the same calls, on the same
floats — so batch schedules can be bit-identical, not merely close.

An allocator that reads the live free count raises
:class:`~repro.exceptions.BatchUnsupportedError`: its decisions are not a
function of ``(model, P)``, so they cannot be precomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import BatchUnsupportedError, SimulationError
from repro.graph.taskgraph import TaskGraph
from repro.sim.allocation import Allocator
from repro.types import TaskId

__all__ = [
    "HUGE_DEMAND",
    "CompiledStructure",
    "CompiledRun",
    "CompiledBatch",
    "BatchCompiler",
    "compile_structure",
    "compile_run",
    "compile_batch",
]

#: Sentinel processor demand for empty/started queue slots and padding
#: columns: larger than any feasible platform, small enough that a
#: window's worth of sentinels cannot overflow an int64 cumulative sum.
HUGE_DEMAND = np.int64(1) << np.int64(40)


@dataclass(frozen=True)
class CompiledStructure:
    """Platform-independent dense view of one task graph."""

    #: Task ids in graph insertion order; array column ``i`` is ``ids[i]``.
    ids: tuple[TaskId, ...]
    #: Per-task report tags, same order.
    tags: tuple[str, ...]
    #: In-degree per column (``int64 [n]``).
    indeg: np.ndarray
    #: CSR successor map: ``succ[indptr[i]:indptr[i+1]]`` are the columns
    #: of task ``i``'s successors.
    succ_indptr: np.ndarray
    succ: np.ndarray
    #: Cache-key group of each column (``int64 [n]``): tasks with equal
    #: ``model.cache_key()`` share a group; key-less tasks get a group of
    #: their own (no sharing can be proven for them).
    group: np.ndarray
    #: One representative column per group, in group order (``int64 [g]``).
    group_rep: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class CompiledRun:
    """One run's arrays: a structure specialized to a platform size."""

    structure: CompiledStructure
    P: int
    #: Final processor allocation per column (``int64 [n]``).
    procs: np.ndarray
    #: Pre-cap allocation per column (``int64 [n]``).
    initial: np.ndarray
    #: Execution time under ``procs`` per column (``float64 [n]``).
    duration: np.ndarray
    #: Allocator consultations made while compiling this run: one per
    #: cache-key group (one per task for task-aware allocators).
    allocator_calls: int
    #: Allocator-cache counter diffs across this run's compilation
    #: (zero for allocators without a ``cache_info``).
    alloc_cache_hits: int = 0
    alloc_cache_misses: int = 0
    alloc_cache_bypasses: int = 0


@dataclass(frozen=True)
class CompiledBatch:
    """A padded stack of compiled runs, ready for the vectorized engine.

    All per-task arrays are ``[B, N]`` with ``N = max`` task count; padding
    columns carry an in-degree of 1 (never ready) and ``HUGE_DEMAND``
    processor demands (never fit), so the engine needs no validity mask.
    """

    runs: tuple[CompiledRun, ...]
    #: Tasks per run (``int64 [B]``).
    n_tasks: np.ndarray
    #: Platform size per run (``int64 [B]``).
    P: np.ndarray
    #: ``int64 [B, N]``: final allocation (HUGE_DEMAND padding).
    demand: np.ndarray
    #: ``int64 [B, N]``: pre-cap allocation (0 padding).
    initial: np.ndarray
    #: ``float64 [B, N]``: execution times (0 padding).
    duration: np.ndarray
    #: ``int64 [B, N]``: initial in-degrees (1 padding).
    indeg: np.ndarray
    #: Flattened CSR over global indices ``g = b * N + col``.
    succ_indptr: np.ndarray
    succ: np.ndarray

    @property
    def B(self) -> int:
        return len(self.runs)

    @property
    def N(self) -> int:
        return int(self.demand.shape[1])

    @property
    def total_tasks(self) -> int:
        return int(self.n_tasks.sum())


def compile_structure(graph: TaskGraph) -> CompiledStructure:
    """Compile the platform-independent arrays of one graph."""
    ids = tuple(graph)
    n = len(ids)
    index = {tid: i for i, tid in enumerate(ids)}
    tasks = graph.task_map()
    tags = tuple(tasks[tid].tag for tid in ids)

    indeg_map = graph.in_degree_map()
    indeg = np.fromiter((indeg_map[t] for t in ids), dtype=np.int64, count=n)
    succ_map = graph.successor_map()
    counts = np.fromiter((len(succ_map[t]) for t in ids), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    succ = np.fromiter(
        (index[s] for t in ids for s in succ_map[t]), dtype=np.int64, count=total
    )

    group = np.empty(n, dtype=np.int64)
    group_rep: list[int] = []
    seen: dict[Hashable, int] = {}
    for i, tid in enumerate(ids):
        key = tasks[tid].model.cache_key()
        if key is None:
            # No sharing provable: a group of its own.
            group[i] = len(group_rep)
            group_rep.append(i)
            continue
        try:
            g = seen.get(key)
        except TypeError:  # unhashable key: same bypass as the allocator cache
            g = None
            key = None
        if g is None:
            g = len(group_rep)
            if key is not None:
                seen[key] = g
            group_rep.append(i)
        group[i] = g
    return CompiledStructure(
        ids=ids,
        tags=tags,
        indeg=indeg,
        succ_indptr=indptr,
        succ=succ,
        group=group,
        group_rep=np.asarray(group_rep, dtype=np.int64),
    )


def compile_run(
    structure: CompiledStructure,
    P: int,
    allocator: Allocator,
    graph: TaskGraph,
) -> CompiledRun:
    """Specialize a compiled structure to one platform size and allocator.

    Consults the allocator through the same memoized entry point as the
    reference engine (:meth:`~repro.sim.allocation.Allocator.allocate_cached`)
    and computes durations with the scalar ``model.time`` — once per
    cache-key group — so the resulting floats are identical to what the
    reference loop would produce task by task.
    """
    if getattr(allocator, "uses_free", False):
        raise BatchUnsupportedError(
            f"allocator {type(allocator).__name__} reads the live free count; "
            "its decisions are not a pure function of (model, P)",
            feature="allocator-uses-free",
        )
    tasks = graph.task_map()
    ids = structure.ids
    n = structure.n

    allocate_task = getattr(allocator, "allocate_task", None)
    use_task_alloc = callable(allocate_task)
    allocate_model = getattr(allocator, "allocate_cached", None)
    if not callable(allocate_model):
        allocate_model = allocator.allocate

    procs = np.empty(n, dtype=np.int64)
    initial = np.empty(n, dtype=np.int64)
    duration = np.empty(n, dtype=np.float64)
    calls = 0
    cache_info = getattr(allocator, "cache_info", None)
    info0 = cache_info() if callable(cache_info) else None

    if use_task_alloc and n:
        # Task-aware allocators (fixed per-task allotments) may decide per
        # task id, so no cross-task sharing can be assumed: consult per task.
        for i, tid in enumerate(ids):
            task = tasks[tid]
            alloc = allocate_task(task, P, free=None)
            calls += 1
            _check_alloc(alloc.final, P, alloc, tid)
            procs[i] = alloc.final
            initial[i] = alloc.initial
            duration[i] = task.model.time(alloc.final)
    elif n:
        reps = structure.group_rep
        g_final = np.empty(len(reps), dtype=np.int64)
        g_initial = np.empty(len(reps), dtype=np.int64)
        g_duration = np.empty(len(reps), dtype=np.float64)
        for g, rep in enumerate(reps):
            tid = ids[int(rep)]
            model = tasks[tid].model
            alloc = allocate_model(model, P, free=None)
            calls += 1
            _check_alloc(alloc.final, P, alloc, tid)
            g_final[g] = alloc.final
            g_initial[g] = alloc.initial
            g_duration[g] = model.time(alloc.final)
        grp = structure.group
        procs = g_final[grp]
        initial = g_initial[grp]
        duration = g_duration[grp]

    hits = misses = bypasses = 0
    if info0 is not None:
        info = cache_info()
        hits = info.hits - info0.hits
        misses = info.misses - info0.misses
        bypasses = info.bypasses - info0.bypasses
    return CompiledRun(
        structure=structure,
        P=int(P),
        procs=procs,
        initial=initial,
        duration=duration,
        allocator_calls=calls,
        alloc_cache_hits=hits,
        alloc_cache_misses=misses,
        alloc_cache_bypasses=bypasses,
    )


def _check_alloc(final: int, P: int, alloc: object, tid: TaskId) -> None:
    if not 1 <= final <= P:
        # Same failure, same message as the reference engine's admit().
        raise SimulationError(
            f"allocator returned infeasible allocation {alloc} "
            f"for task {tid!r} on P={P}"
        )


class BatchCompiler:
    """Structure-sharing compiler front end.

    Caches :class:`CompiledStructure` per graph *object* (``id``-keyed,
    with a reference held so ids cannot be recycled), so a batch that
    replicates one graph across runs — or sweeps platform sizes over it —
    pays the Python-level graph walk once.
    """

    def __init__(self) -> None:
        self._structures: dict[int, tuple[TaskGraph, CompiledStructure]] = {}

    def structure(self, graph: TaskGraph) -> CompiledStructure:
        entry = self._structures.get(id(graph))
        # Staleness guard: a graph mutated after caching is recompiled.
        # TaskGraph is append-only (tasks and edges are only ever added),
        # so unchanged node and edge counts mean an unchanged graph.
        if (
            entry is not None
            and entry[0] is graph
            and entry[1].n == len(graph)
            and entry[1].succ.size == graph.num_edges()
        ):
            return entry[1]
        structure = compile_structure(graph)
        self._structures[id(graph)] = (graph, structure)
        return structure

    def run(
        self,
        graph: TaskGraph,
        P: int,
        allocator: Allocator,
    ) -> CompiledRun:
        return compile_run(self.structure(graph), P, allocator, graph)


def compile_batch(
    items: Sequence[tuple[TaskGraph, int]],
    allocator: Allocator,
    compiler: BatchCompiler | None = None,
) -> CompiledBatch:
    """Compile ``(graph, P)`` runs and stack them into one padded batch."""
    if not items:
        raise SimulationError("cannot compile an empty batch")
    if compiler is None:
        compiler = BatchCompiler()
    # Replicated (graph, P) pairs — parameter sweeps replaying one
    # workload — share a single CompiledRun: within one call the
    # allocator and graph cannot change between replicas.
    memo: dict[tuple[int, int], CompiledRun] = {}
    runs_list = []
    for graph, P in items:
        key = (id(graph), P)
        run = memo.get(key)
        if run is None:
            run = compiler.run(graph, P, allocator)
            memo[key] = run
        runs_list.append(run)
    runs = tuple(runs_list)

    B = len(runs)
    N = max(run.structure.n for run in runs)
    n_tasks = np.fromiter((run.structure.n for run in runs), dtype=np.int64, count=B)
    P_arr = np.fromiter((run.P for run in runs), dtype=np.int64, count=B)

    demand = np.full((B, N), HUGE_DEMAND, dtype=np.int64)
    initial = np.zeros((B, N), dtype=np.int64)
    duration = np.zeros((B, N), dtype=np.float64)
    indeg = np.ones((B, N), dtype=np.int64)

    edge_counts = np.zeros((B, N), dtype=np.int64)
    for b, run in enumerate(runs):
        s = run.structure
        n = s.n
        demand[b, :n] = run.procs
        initial[b, :n] = run.initial
        duration[b, :n] = run.duration
        indeg[b, :n] = s.indeg
        edge_counts[b, :n] = np.diff(s.succ_indptr)

    indptr = np.zeros(B * N + 1, dtype=np.int64)
    np.cumsum(edge_counts.reshape(-1), out=indptr[1:])
    succ = np.empty(int(indptr[-1]), dtype=np.int64)
    for b, run in enumerate(runs):
        s = run.structure
        lo = indptr[b * N]
        hi = indptr[b * N + s.n]
        succ[lo:hi] = s.succ + b * N

    return CompiledBatch(
        runs=runs,
        n_tasks=n_tasks,
        P=P_arr,
        demand=demand,
        initial=initial,
        duration=duration,
        indeg=indeg,
        succ_indptr=indptr,
        succ=succ,
    )
