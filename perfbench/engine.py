"""The ``distinct`` and ``shared`` workloads: Algorithm 1 through ``run()``.

Both build their graphs from the seed, run every case through the public
``OnlineScheduler.for_family(...).run`` (or ``AdversarialInstance.run``)
in passes bracketed by the calibration kernel, and check every result.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from common import Calibrator, Checks, Profile, geomean, layer_of, median, repeated_setup

from repro import LpaAllocator, OnlineScheduler, TaskGraph, makespan_lower_bound
from repro.adversary import instance_for_family
from repro.graph.generators import erdos_renyi_dag, independent_tasks, layered_random
from repro.graph.io import graph_to_dict
from repro.sim import SimulationResult
from repro.speedup import RandomModelFactory

FAMILIES = ("roofline", "communication", "amdahl", "general")

#: Relative slack for float comparisons against closed-form makespans.
RTOL = 1e-9

#: Passes profiled in a traced run; per-layer times are per pass.
TRACED_PASSES = 2

#: Random graphs per (family, P) cell of ``distinct``.
GRAPHS_PER_CELL = 12
#: Kernels per family in ``shared``'s wide independent sets.
WIDE_KERNELS = 4
#: Graphs in ``shared``'s sweep, each run at every P of the sweep.
SWEPT_GRAPHS = 16


@dataclass
class Case:
    """One ``run()`` call of a pass: a graph, a platform and a scheduler."""

    name: str
    P: int
    graph: TaskGraph
    run: Callable[[], SimulationResult]
    mu: float
    predicted: float | None = None
    lower_bound: float = 0.0


def _factory(family: str, seq: np.random.SeedSequence) -> RandomModelFactory:
    return RandomModelFactory(family, seed=np.random.default_rng(seq))


def _scheduled(family: str, P: int, graph: TaskGraph) -> Callable[[], SimulationResult]:
    return lambda: OnlineScheduler.for_family(family, P).run(graph)


def distinct_cases(seed: int) -> list[Case]:
    """Random graphs with a fresh random model per task: every allocation misses.

    Many small graphs per pass, so one seed's draw of structures and
    models moves the pass cost little.
    """
    seqs = iter(np.random.SeedSequence([seed, 1]).spawn(4 * 3 * GRAPHS_PER_CELL * 2))
    cases = []
    for family in FAMILIES:
        mu = OnlineScheduler.for_family(family, 1).mu
        for P in (16, 128, 4096):
            for k in range(GRAPHS_PER_CELL):
                if k % 2:
                    graph = erdos_renyi_dag(
                        48, _factory(family, next(seqs)), edge_probability=0.08,
                        seed=np.random.default_rng(next(seqs)),
                    )
                else:
                    graph = layered_random(
                        6, 8, _factory(family, next(seqs)), edge_probability=0.3,
                        seed=np.random.default_rng(next(seqs)),
                    )
                cases.append(
                    Case(f"{family}/{k}/P{P}", P, graph, _scheduled(family, P, graph), mu)
                )
    return cases


def shared_cases(seed: int) -> list[Case]:
    """Inputs whose tasks share a few speedup models: the allocator cache hits."""
    seqs = iter(np.random.SeedSequence([seed, 2]).spawn(4 * WIDE_KERNELS + 3 * SWEPT_GRAPHS))
    cases = []
    for family, size in (("communication", 64), ("amdahl", 24), ("general", 24)):
        inst = instance_for_family(family, size)
        cases.append(
            Case(f"adversary/{family}", inst.P, inst.graph, inst.run, inst.mu,
                 predicted=inst.predicted_makespan)
        )
    for family in FAMILIES:
        mu = OnlineScheduler.for_family(family, 1).mu
        for k, P in enumerate((64, 256) * (WIDE_KERNELS // 2)):
            model = _factory(family, next(seqs))()
            graph = independent_tasks(150, lambda m=model: m)
            cases.append(
                Case(f"wide/{family}/{k}/P{P}", P, graph, _scheduled(family, P, graph), mu)
            )
    mu = OnlineScheduler.for_family("amdahl", 1).mu
    for k in range(SWEPT_GRAPHS):
        pool_factory = _factory("amdahl", next(seqs))
        pool = [pool_factory() for _ in range(8)]
        picks = np.random.default_rng(next(seqs))
        swept = layered_random(
            8, 12, lambda pool=pool, picks=picks: pool[int(picks.integers(len(pool)))],
            edge_probability=0.2, seed=np.random.default_rng(next(seqs)),
        )
        for P in (16, 64, 256, 1024):
            cases.append(
                Case(f"sweep/{k}/P{P}", P, swept, _scheduled("amdahl", P, swept), mu)
            )
    return cases


BUILDERS = {"distinct": distinct_cases, "shared": shared_cases}


def fingerprint(cases: list[Case]) -> str:
    """Content hash of the generated inputs (graphs, models, platforms)."""
    h = hashlib.sha256()
    for case in cases:
        payload = {"name": case.name, "P": case.P, "graph": graph_to_dict(case.graph)}
        h.update(json.dumps(payload, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def build(workload: str, seed: int, spans: dict[str, float] | None = None) -> list[Case]:
    """Generate the workload's cases and their Lemma-2 lower bounds."""
    t0 = time.perf_counter()
    cases = BUILDERS[workload](seed)
    t1 = time.perf_counter()
    for case in cases:
        case.lower_bound = makespan_lower_bound(case.graph, case.P).value
    if spans is not None:
        spans["graph.build"] = t1 - t0
        spans["bounds.lower_bound"] = time.perf_counter() - t1
    return cases


def check(case: Case, result: SimulationResult, reference: float | None) -> list[str]:
    """The output checks behind ``failed``: one list of failed kinds per run."""
    failed = []
    try:
        result.schedule.validate(case.graph)
    except Exception:  # every ScheduleError subclass, or a crash inside it
        failed.append("invalid_schedule")
    makespan = result.makespan
    if makespan < case.lower_bound * (1 - RTOL):
        failed.append("below_lower_bound")
    if case.predicted is not None and abs(makespan - case.predicted) > RTOL * case.predicted:
        failed.append("missed_predicted_makespan")
    if reference is not None and makespan != reference:
        failed.append("nondeterministic_makespan")
    return failed


class EngineRun:
    """Timed passes over one workload's cases, every result checked."""

    def __init__(self, cases: list[Case], calib: Calibrator, checks: Checks) -> None:
        self.cases = cases
        self.calib = calib
        self.checks = checks
        self.tasks = sum(len(c.graph) for c in cases)
        self.makespans: list[float | None] = [None] * len(cases)
        self.rates: list[float] = []  # calibrated tasks/s, one per pass
        self.raw_rates: list[float] = []
        self.raw_pass_s: list[float] = []
        self.last_results: list[SimulationResult] = []

    def one_pass(self, profile: Profile | None = None) -> None:
        def timed() -> list[SimulationResult | None]:
            out = []
            for case in self.cases:
                try:
                    out.append(case.run() if profile is None else profile.call(case.run))
                except Exception:  # a crash is a failed run, not a crashed benchmark
                    out.append(None)
            return out

        outcomes, raw, scale = self.calib.bracket(timed)
        self.raw_pass_s.append(raw)
        if profile is None:
            self.raw_rates.append(self.tasks / raw)
            self.rates.append(self.tasks / raw / scale)
        self.last_results = []
        for i, (case, result) in enumerate(zip(self.cases, outcomes, strict=True)):
            if result is None:
                self.checks.record(["raised"])
                continue
            self.checks.record(check(case, result, self.makespans[i]))
            if self.makespans[i] is None:
                self.makespans[i] = result.makespan
            self.last_results.append(result)

    def run_for(self, seconds: float, min_passes: int = 5) -> None:
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes < min_passes or time.perf_counter() < deadline:
            self.one_pass()
            passes += 1

    def makespan_ratio(self) -> float:
        ratios = [
            m / c.lower_bound
            for m, c in zip(self.makespans, self.cases, strict=True)
            if m is not None
        ]
        return geomean(ratios)


def stats_totals(results: list[SimulationResult],
                 totals: dict[str, int] | None = None) -> dict[str, int]:
    """``EngineStats`` summed over ``results`` (added to ``totals`` if given)."""
    keys = ("scan_steps", "scans_skipped", "alloc_cache_hits", "alloc_cache_misses",
            "alloc_cache_bypasses")
    totals = dict.fromkeys(keys, 0) if totals is None else totals
    for result in results:
        stats = result.stats.as_dict() if result.stats is not None else {}
        for key in keys:
            totals[key] += int(stats.get(key, 0))
    return totals


def layer_metrics(profile: Profile, passes: int, stats: dict[str, int],
                  checks: Checks) -> dict[str, float]:
    """Per-pass self times by layer and of the engine steps named in the README.

    ``stats`` are the ``EngineStats`` of the profiled passes: every cache
    miss or bypass must show in the profile as one ``allocate`` call.
    """
    attributed = profile.attributed()
    per_layer: dict[str, float] = {}
    named = {"allocate": 0.0, "loop": 0.0, "reveal": 0.0, "record": 0.0}
    time_calls = 0
    computed = attributed.get(("repro.core.allocator", "allocate"), (0.0, 0))[1]
    checks.record(
        [] if computed == stats["alloc_cache_misses"] + stats["alloc_cache_bypasses"]
        else ["profile_disagrees_with_engine_stats"]
    )
    for (module, func), (self_s, calls) in attributed.items():
        layer = layer_of(module)
        per_layer[layer] = per_layer.get(layer, 0.0) + self_s
        if module == "repro.core.allocator" or (
            module == "repro.sim.allocation" and func.startswith("allocate")
        ):
            named["allocate"] += self_s
        elif module == "repro.sim.engine" and func in ("_run_plain", "admit", "start_fitting"):
            named["loop"] += self_s
        elif module == "repro.sim.sources" and func == "on_complete":
            named["reveal"] += self_s
        elif module == "repro.sim.schedule" and func == "add":
            named["record"] += self_s
        if layer == "speedup" and func.startswith("time"):
            time_calls += calls
    attributed_s = sum(per_layer.values())
    return {
        "core.allocate_ms": named["allocate"] * 1e3 / passes,
        "speedup.time_calls": time_calls / passes,
        "speedup.self_ms": per_layer.get("speedup", 0.0) * 1e3 / passes,
        "sim.loop_self_ms": named["loop"] * 1e3 / passes,
        "sim.self_ms": per_layer.get("sim", 0.0) * 1e3 / passes,
        "core.self_ms": per_layer.get("core", 0.0) * 1e3 / passes,
        "sim.reveal_ms": named["reveal"] * 1e3 / passes,
        "sim.record_ms": named["record"] * 1e3 / passes,
        "trace.attributed_pct": 100.0 * attributed_s / profile.wall_s,
    }


def batch_vs_reference(cases: list[Case], checks: Checks) -> float | None:
    """Reference-engine time over ``repro.batch.run_batch`` time, same inputs.

    ``None`` when the batch tier is not installed.  Makespans must agree
    bit for bit; a mismatch is a failed check.
    """
    try:
        from repro.batch import run_batch
    except ImportError:
        return None
    groups: dict[float, list[Case]] = {}
    for case in cases:
        groups.setdefault(case.mu, []).append(case)
    ref_s: list[float] = []
    batch_s: list[float] = []
    for _ in range(3):
        t_ref = t_batch = 0.0
        for mu, group in groups.items():
            t0 = time.perf_counter()
            ref = [c.run().makespan for c in group]
            t1 = time.perf_counter()
            out = run_batch([(c.graph, c.P) for c in group], LpaAllocator(mu), materialize=False)
            t2 = time.perf_counter()
            t_ref += t1 - t0
            t_batch += t2 - t1
            checks.record(
                [] if [float(m) for m in out.makespans] == ref else ["batch_mismatch"]
            )
        ref_s.append(t_ref)
        batch_s.append(t_batch)
    return median(ref_s) / median(batch_s)


def setup(workload: str, seed: int, calib: Calibrator, checks: Checks,
          reps: int = 5) -> tuple[list[Case], list[float], dict[str, list[float]]]:
    """Build the inputs ``reps`` times; returns the cases, the calibrated
    set-up times and the raw spans (``setup`` itself among them)."""
    spans: dict[str, list[float]] = {"graph.build": [], "bounds.lower_bound": []}

    def once() -> list[Case]:
        rep_spans: dict[str, float] = {}
        cases = build(workload, seed, rep_spans)
        for key, value in rep_spans.items():
            spans[key].append(value)
        return cases

    cases, setup_s, spans["setup"] = repeated_setup(calib, checks, once, fingerprint, reps)
    return cases, setup_s, spans


def run(workload: str, seed: int, seconds: float, trace: bool,
        calib: Calibrator, checks: Checks) -> dict[str, Any]:
    """One benchmark run of ``distinct`` or ``shared``; returns metric values."""
    cases, setup_s, spans = setup(workload, seed, calib, checks)
    bench = EngineRun(cases, calib, checks)
    bench.one_pass()  # warm-up: lazy imports and first-call set-up
    bench.rates.clear()
    bench.raw_rates.clear()
    bench.raw_pass_s.clear()
    if not trace:
        bench.run_for(seconds)
        print(f"{workload}: {len(bench.rates)} passes of {len(cases)} runs, "
              f"{bench.tasks} tasks each; uncalibrated "
              f"sim_tasks_per_s={median(bench.raw_rates):.1f}", flush=True)
        return {
            "sim_tasks_per_s": median(bench.rates),
            "makespan_ratio": bench.makespan_ratio(),
            "setup_s": median(setup_s),
        }
    bench.run_for(seconds * 0.4)
    untraced_pass_s = median(bench.raw_pass_s)
    stats = stats_totals(bench.last_results)
    profile = Profile()
    traced_pass_s = []
    traced_stats = stats_totals([])
    for _ in range(TRACED_PASSES):
        bench.raw_pass_s.clear()
        bench.one_pass(profile)
        traced_pass_s.append(bench.raw_pass_s[0])
        traced_stats = stats_totals(bench.last_results, traced_stats)
    out = layer_metrics(profile, TRACED_PASSES, traced_stats, checks)
    hits = stats["alloc_cache_hits"]
    calls = hits + stats["alloc_cache_misses"] + stats["alloc_cache_bypasses"]
    vs = batch_vs_reference(cases, checks)
    out.update({
        "core.alloc_cache_hit_rate": hits / calls if calls else 0.0,
        "sim.scan_steps": stats["scan_steps"],
        "sim.scans_skipped": stats["scans_skipped"],
        "graph.build_ms": median(spans["graph.build"]) * 1e3,
        "bounds.lower_bound_ms": median(spans["bounds.lower_bound"]) * 1e3,
        "trace.overhead_pct": 100.0 * (median(traced_pass_s) / untraced_pass_s - 1.0),
        "machine.raw.sim_tasks_per_s": median(bench.raw_rates),
        "machine.raw.setup_s": median(spans["setup"]),
    })
    if vs is not None:
        out["batch.vs_reference"] = vs
    return out
