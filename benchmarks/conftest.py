"""Benchmark-suite configuration.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark regenerates one of the paper's tables or figures (asserting
the reproduced values) and times the regeneration.  Add ``-s`` to also see
the reproduced tables printed as the paper reports them.

Engine benchmarks (``bench_engine.py``) additionally append their timings
and :class:`~repro.sim.engine.EngineStats` counters to the repo-root
``BENCH_engine.json`` trajectory at the end of a session that passed, so
every passing benchmark run extends the performance record (see
``docs/performance.md``).

Every trajectory entry must carry a human-readable ``label`` and the
short ``commit`` hash of the code it measured (``<hash>-dirty`` for a
tree with uncommitted changes) — an unlabeled timing is unusable as a
performance record.  The schema is validated here at
session start (on the existing file) and again after appending; set
``REPRO_BENCH_LABEL`` to override the default label of new entries.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from _provenance import bench_commit, bench_label, validate_engine_bench

#: Engine counters stashed by the ``record_engine_stats`` fixture, keyed by
#: test name; flushed into BENCH_engine.json at session end.
_ENGINE_STATS: dict[str, dict] = {}

#: Extra scalar session fields (e.g. the measured NullTracer overhead)
#: stashed by fixtures and merged into the BENCH_engine.json entry.
_SESSION_FIELDS: dict[str, object] = {}

_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def pytest_configure(config):
    """Fail fast if the existing trajectory already violates the schema."""
    problems = validate_engine_bench()
    if problems:
        raise pytest.UsageError(
            "BENCH_engine.json schema violations:\n  " + "\n  ".join(problems)
        )


@pytest.fixture
def show(capsys):
    """Print a report around pytest's capture (visible with -s or on failure)."""

    def _show(text: str) -> None:
        print()
        print(text)

    return _show


@pytest.fixture
def record_engine_stats(request):
    """Stash a run's engine counters for the BENCH_engine.json session entry."""

    def _record(result) -> None:
        stats = getattr(result, "stats", None)
        if stats is not None:
            _ENGINE_STATS[request.node.name] = stats.as_dict()

    return _record


@pytest.fixture
def record_session_field():
    """Stash one scalar field for the BENCH_engine.json session entry."""

    def _record(name: str, value) -> None:
        _SESSION_FIELDS[name] = value

    return _record


def pytest_sessionfinish(session, exitstatus):
    """Append this session's engine-benchmark timings to BENCH_engine.json.

    Only a session that passed appends: a failed gate's timings are not a
    record of working code.
    """
    if exitstatus != pytest.ExitCode.OK:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    timings: dict[str, dict] = {}
    for bench in bench_session.benchmarks:
        if "bench_engine" not in str(getattr(bench, "fullname", "")):
            continue
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        timings[bench.name] = {
            "min_s": round(stats.min, 6),
            "median_s": round(stats.median, 6),
            "mean_s": round(stats.mean, 6),
            "rounds": stats.rounds,
        }
    if not timings:
        return
    from repro.runtime.manifest import append_engine_bench_entry

    commit = bench_commit()
    append_engine_bench_entry(
        _BENCH_PATH,
        {
            "label": bench_label(f"engine suite @ {commit}"),
            "commit": commit,
            "unix_time": int(time.time()),
            "benchmarks": timings,
            "engine_stats": dict(_ENGINE_STATS),
            **_SESSION_FIELDS,
        },
    )
    problems = validate_engine_bench()
    assert not problems, "\n".join(problems)
