"""Cold- vs warm-cache wall time of the full-repo semantic lint.

The incremental analysis cache (PR 9) exists so `python -m repro.lint
src tests --semantic` is cheap enough to run on every commit: the cold
run parses and analyzes everything, the warm run replays per-file and
whole-program results by content hash.  This benchmark times both over
the real repository and appends the pair to ``BENCH_lint.json`` with
label+commit provenance, so cache regressions (or analyzer slowdowns)
show up as trajectory changes.

Run standalone::

    python benchmarks/bench_lint.py [--rounds N]

CI enforces the acceptance criterion separately (warm run < 1 s); this
script records the actual numbers.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO / "BENCH_lint.json"
sys.path.insert(0, str(_REPO / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _provenance import bench_commit, bench_label, validate_engine_bench  # noqa: E402

from repro.lint import all_rules, lint_paths  # noqa: E402
from repro.lint.semantic.cache import AnalysisCache  # noqa: E402

LINT_TARGETS = [_REPO / "src", _REPO / "tests"]


def _timed_run(cache: AnalysisCache | None):
    start = time.perf_counter()
    report = lint_paths(LINT_TARGETS, rules=all_rules(), cache=cache)
    if cache is not None:
        cache.save()
    return time.perf_counter() - start, report


def run_bench(rounds: int) -> dict:
    cold_times: list[float] = []
    warm_times: list[float] = []
    report = None
    for _ in range(rounds):
        with tempfile.TemporaryDirectory() as tmp:
            cache_path = Path(tmp) / "lint-cache.json"
            cold_s, report = _timed_run(AnalysisCache(cache_path))
            warm_s, warm_report = _timed_run(AnalysisCache(cache_path))
            assert [f.location() for f in warm_report.findings] == [
                f.location() for f in report.findings
            ], "warm replay diverged from the cold run"
            cold_times.append(cold_s)
            warm_times.append(warm_s)
    cold = min(cold_times)
    warm = min(warm_times)
    assert report is not None
    return {
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "speedup": round(cold / warm, 2) if warm > 0 else None,
        "files_checked": report.files_checked,
        "findings": len(report.findings),
        "suppressed": report.suppressed,
        "rounds": rounds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds; best-of is kept"
    )
    args = parser.parse_args(argv)

    results = run_bench(args.rounds)
    print(
        f"cold {results['cold_s']:.3f}s  warm {results['warm_s']:.3f}s  "
        f"({results['speedup']}x)  over {results['files_checked']} files"
    )

    from repro.runtime.manifest import append_engine_bench_entry

    commit = bench_commit()
    append_engine_bench_entry(
        _BENCH_PATH,
        {
            "label": bench_label(f"semantic lint cache @ {commit}"),
            "commit": commit,
            "benchmark": "lint",
            "unix_time": int(time.time()),
            "benchmarks": results,
        },
    )
    problems = validate_engine_bench(_BENCH_PATH)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"appended entry to {_BENCH_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
