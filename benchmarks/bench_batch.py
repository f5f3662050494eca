"""Batch-engine throughput benchmarks.

Times the vectorized structure-of-arrays engine (:func:`repro.batch.run_batch`)
against the reference event loop on the ``wide`` scenario (5000
independent communication-model tasks, P=64) and appends the throughput
numbers to the repo-root ``BENCH_engine.json`` trajectory as
``"benchmark": "batch"`` entries, from sessions that passed.

Scenarios, separated honestly:

* ``test_wide_batch_throughput`` — 256 replicas of *one shared graph
  object*, so the structure compiles once and the allocation resolves to
  one cached entry; this is the batch engine's home turf (parameter
  sweeps replaying the same workload) and the >=10x acceptance gate.
* ``test_distinct_graphs_batch`` — 32 *distinct* graph objects, each
  compiled separately; the lower bound of the speedup story, recorded
  without a gate.
* ``test_batch_size_scaling`` — how throughput amortizes with batch
  size (1 -> 4096 replicas of a ~200-task layered graph), recorded as
  the entry's ``scaling_sweep``.

Standalone use (writes the same BENCH entry)::

    python benchmarks/bench_batch.py --sweep
"""

import time
from pathlib import Path

import pytest

from repro.batch import run_batch
from repro.core.scheduler import OnlineScheduler
from repro.graph.generators import independent_tasks, layered_random
from repro.speedup import CommunicationModel, RandomModelFactory

_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Timings accumulated by the tests, flushed as one entry at session end.
_BATCH_BENCHMARKS: dict[str, dict] = {}

#: Batch-size scaling rows, flushed with the same entry.
_SWEEP_RESULTS: dict[str, list] = {}

#: Key of the scaling rows inside ``scaling_sweep``.  Earlier entries
#: keyed rows per compute kernel; the numpy kernel is the one that
#: remains, and keeping its key aligns new rows with the history.
_SWEEP_KEY = "numpy"

WIDE_TASKS = 5000
WIDE_P = 64
WIDE_REPLICAS = 256

#: Batch sizes of the scaling sweep (replicas of the sweep graph).
SWEEP_SIZES = (1, 4, 16, 64, 256, 1024, 4096)
SWEEP_P = 32


def _wide_graph():
    return independent_tasks(WIDE_TASKS, lambda: CommunicationModel(50.0, 0.5))


def _sweep_graph():
    factory = RandomModelFactory(family="communication", seed=7)
    return layered_random(10, 20, factory, seed=7)  # ~200 tasks


def _min_time(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_scaling_sweep(sizes=SWEEP_SIZES, rounds=2):
    """Throughput as a function of batch size.

    Returns ``[{"batch", "batch_s", "runs_per_sec", "tasks_per_sec"},
    ...]`` with one row per entry of ``sizes``.
    """
    graph = _sweep_graph()
    scheduler = OnlineScheduler.for_family("communication", SWEEP_P)
    allocator = scheduler.allocator
    n = len(graph)
    rows = []
    for size in sizes:
        items = [(graph, SWEEP_P)] * size
        best = _min_time(
            lambda: run_batch(items, allocator, materialize=False), rounds
        )
        rows.append(
            {
                "batch": size,
                "batch_s": round(best, 6),
                "runs_per_sec": round(size / best, 3),
                "tasks_per_sec": round(size * n / best, 1),
            }
        )
    return rows


@pytest.fixture(scope="session", autouse=True)
def _append_batch_entry(request):
    """Append the accumulated batch timings to BENCH_engine.json.

    Only when every test of the session so far passed: a failed gate's
    timings are not a record of working code.
    """
    yield
    if request.session.testsfailed or not (_BATCH_BENCHMARKS or _SWEEP_RESULTS):
        return
    _flush_entry(_BATCH_BENCHMARKS, _SWEEP_RESULTS)


def _flush_entry(benchmarks, sweep):
    from _provenance import bench_commit, bench_label, validate_engine_bench
    from repro.runtime.manifest import append_engine_bench_entry

    commit = bench_commit()
    append_engine_bench_entry(
        _BENCH_PATH,
        {
            "label": bench_label(f"batch engine @ {commit}"),
            "commit": commit,
            "benchmark": "batch",
            "unix_time": int(time.time()),
            "benchmarks": dict(benchmarks),
            **({"scaling_sweep": dict(sweep)} if sweep else {}),
        },
    )
    problems = validate_engine_bench(_BENCH_PATH)
    assert not problems, "\n".join(problems)


def test_wide_batch_throughput(benchmark):
    """256-replica wide batch: >=10x tasks-scheduled/sec over reference."""
    graph = _wide_graph()
    scheduler = OnlineScheduler.for_family("communication", WIDE_P)
    allocator = scheduler.allocator
    items = [(graph, WIDE_P)] * WIDE_REPLICAS

    reference = scheduler.run(graph)
    ref_s = _min_time(lambda: scheduler.run(graph), rounds=3)

    outcome = benchmark.pedantic(
        run_batch,
        args=(items, allocator),
        kwargs={"materialize": False},
        rounds=3,
        iterations=1,
    )
    # Every replica must land exactly on the reference makespan — a
    # throughput number for a wrong schedule would be meaningless.
    assert (outcome.makespans == reference.makespan).all()

    batch_s = _min_time(
        lambda: run_batch(items, allocator, materialize=False), rounds=3
    )
    total_tasks = WIDE_TASKS * WIDE_REPLICAS
    entry = {
        "scenario": f"wide x{WIDE_REPLICAS} (shared graph, {WIDE_TASKS} tasks, P={WIDE_P})",
        "shared_graph": True,
        "runs": WIDE_REPLICAS,
        "batch_s": round(batch_s, 6),
        "reference_run_s": round(ref_s, 6),
        "tasks_per_sec": round(total_tasks / batch_s, 1),
        "runs_per_sec": round(WIDE_REPLICAS / batch_s, 3),
        "reference_tasks_per_sec": round(WIDE_TASKS / ref_s, 1),
        "tasks_per_sec_ratio": round((total_tasks / batch_s) / (WIDE_TASKS / ref_s), 2),
    }
    _BATCH_BENCHMARKS["test_wide_batch_throughput"] = entry
    assert entry["tasks_per_sec_ratio"] >= 10.0, entry


def test_batch_size_scaling():
    """Throughput must amortize: big batches beat single-run batches."""
    rows = run_scaling_sweep(rounds=2)
    _SWEEP_RESULTS[_SWEEP_KEY] = rows
    assert rows[-1]["tasks_per_sec"] > rows[0]["tasks_per_sec"], rows


def test_distinct_graphs_batch(benchmark):
    """32 distinct layered graphs: per-graph compilation included."""
    runs = 32
    factory = lambda seed: layered_random(  # noqa: E731
        10, 50, RandomModelFactory(family="communication", seed=seed), seed=seed
    )
    graphs = [factory(seed) for seed in range(runs)]
    scheduler = OnlineScheduler.for_family("communication", WIDE_P)
    allocator = scheduler.allocator
    items = [(g, WIDE_P) for g in graphs]
    n_tasks = sum(len(g) for g in graphs)

    ref_s = _min_time(lambda: [scheduler.run(g) for g in graphs], rounds=2)
    outcome = benchmark.pedantic(
        run_batch,
        args=(items, allocator),
        kwargs={"materialize": False},
        rounds=2,
        iterations=1,
    )
    assert outcome.makespans.shape == (runs,)

    batch_s = _min_time(
        lambda: run_batch(items, allocator, materialize=False), rounds=2
    )
    _BATCH_BENCHMARKS["test_distinct_graphs_batch"] = {
        "scenario": f"{runs} distinct layered graphs ({n_tasks} tasks total, P={WIDE_P})",
        "shared_graph": False,
        "runs": runs,
        "batch_s": round(batch_s, 6),
        "reference_serial_s": round(ref_s, 6),
        "tasks_per_sec": round(n_tasks / batch_s, 1),
        "runs_per_sec": round(runs / batch_s, 3),
        "reference_tasks_per_sec": round(n_tasks / ref_s, 1),
        "tasks_per_sec_ratio": round(ref_s / batch_s, 2),
    }


def _main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Batch-engine benchmarks (standalone entry)."
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="run the batch-size scaling sweep (1 -> 4096 runs) "
        "and append the results to BENCH_engine.json",
    )
    parser.add_argument(
        "--rounds", type=int, default=2, help="timing rounds per point (default: 2)"
    )
    args = parser.parse_args(argv)
    if not args.sweep:
        parser.error("nothing to do; pass --sweep (pytest runs the gates)")
    rows = run_scaling_sweep(rounds=args.rounds)
    for row in rows:
        print(
            f"batch={row['batch']:>5}  {row['batch_s']:>9.4f}s  "
            f"{row['runs_per_sec']:>10.1f} runs/s  "
            f"{row['tasks_per_sec']:>12.1f} tasks/s"
        )
    _flush_entry({}, {_SWEEP_KEY: rows})
    print(f"appended scaling sweep to {_BENCH_PATH.name}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
