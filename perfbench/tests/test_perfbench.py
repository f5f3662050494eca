"""Tests of the benchmark itself: determinism, seed sensitivity, trace coverage.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import engine  # noqa: E402
import service  # noqa: E402
from common import Calibrator, Checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["distinct", "shared"])
def test_engine_inputs_repeat_per_seed_and_differ_across_seeds(workload: str) -> None:
    a = engine.fingerprint(engine.build(workload, 11))
    assert a == engine.fingerprint(engine.build(workload, 11))
    assert a != engine.fingerprint(engine.build(workload, 12))


def test_service_inputs_repeat_per_seed_and_differ_across_seeds() -> None:
    a = service.fingerprint(service.make_trace(11, 64, 32))
    assert a == service.fingerprint(service.make_trace(11, 64, 32))
    assert a != service.fingerprint(service.make_trace(12, 64, 32))


def _one_pass(workload: str, seed: int) -> tuple[float, dict[str, float], Checks]:
    checks = Checks()
    bench = engine.EngineRun(engine.build(workload, seed), Calibrator(), checks)
    bench.one_pass()
    return bench.makespan_ratio(), engine.stats_totals(bench.last_results), checks


@pytest.mark.parametrize("workload", ["distinct", "shared"])
def test_engine_outputs_repeat_exactly(workload: str) -> None:
    ratio, stats, checks = _one_pass(workload, 5)
    assert (ratio, stats) == _one_pass(workload, 5)[:2]
    assert checks.failed == 0 and checks.attempted > 0


def test_distinct_misses_and_shared_hits_the_allocator_cache() -> None:
    distinct = _one_pass("distinct", 3)[1]
    shared = _one_pass("shared", 3)[1]
    assert distinct["alloc_cache_hits"] == 0
    assert shared["alloc_cache_hits"] > 0.95 * (
        shared["alloc_cache_hits"] + shared["alloc_cache_misses"]
    )


def test_recovery_digest_repeats(tmp_path: Path) -> None:
    tenants = service.make_trace(7, 96, 48)
    digests = []
    for name in ("a", "b"):
        core = service.replay(tenants, tmp_path / f"{name}.jsonl")
        recovered = service.ServiceCore.recover(tmp_path / f"{name}.jsonl", reopen=False)
        assert recovered.state_digest() == core.state_digest()
        digests.append(core.state_digest())
    assert digests[0] == digests[1]


def test_failed_checks_are_counted() -> None:
    cases = engine.build("shared", 1)
    checks = Checks()
    bench = engine.EngineRun(cases, Calibrator(), checks)
    bench.one_pass()
    result = bench.last_results[0]
    case = cases[0]
    case.lower_bound = result.makespan * 2
    case.predicted = result.makespan * 3
    assert engine.check(case, result, result.makespan / 2) == [
        "below_lower_bound",
        "missed_predicted_makespan",
        "nondeterministic_makespan",
    ]


@pytest.mark.parametrize("workload", ["distinct", "shared"])
def test_traced_self_times_cover_the_traced_wall_time(workload: str) -> None:
    checks = Checks()
    out = engine.run(workload, 2, 0.5, True, Calibrator(), checks)
    assert out["trace.attributed_pct"] >= 90.0
    core_speedup = out["core.self_ms"] + out["speedup.self_ms"]
    if workload == "distinct":
        assert core_speedup > out["sim.self_ms"]
    else:
        assert out["sim.self_ms"] > core_speedup
    assert checks.failed == 0


def _cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_declared_metric(workload: str, trace: int) -> None:
    proc = _cli(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_cli_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "distinct", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
