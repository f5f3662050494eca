"""Provenance stamping and schema checks for ``BENCH_engine.json``-style files.

Every trajectory entry must say *which code it measured*: a
human-readable ``label`` and the short ``commit`` hash are required
fields, validated by :func:`validate_engine_bench` (wired into the
benchmark session via ``conftest.py``).  Shared between the conftest and
``bench_batch.py``'s standalone ``--sweep`` entry point.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Required fields of every BENCH_engine.json entry and their types.
#: Strings must additionally be non-empty.  Entries may carry extra
#: fields (``engine_stats``, ``scaling_sweep``, overhead measurements...).
ENTRY_SCHEMA: dict[str, type] = {
    "label": str,
    "commit": str,
    "unix_time": int,
    "benchmarks": dict,
}


def bench_label(default: str) -> str:
    """Label for a new BENCH entry (``REPRO_BENCH_LABEL`` overrides)."""
    return os.environ.get("REPRO_BENCH_LABEL") or default


def bench_commit() -> str:
    """Short commit hash stamped into new BENCH entries."""
    from repro.runtime.manifest import current_commit

    return current_commit(cwd=Path(__file__).resolve().parent)


def validate_engine_bench(path: Path = BENCH_PATH) -> list[str]:
    """Schema-check a BENCH trajectory (default BENCH_engine.json); returns problems.

    Besides the per-entry fields, the top-level ``benchmark`` header must
    name the benchmark of at least one entry.
    """
    if not path.exists():
        return []
    try:
        loaded = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    entries = loaded.get("entries")
    if not isinstance(entries, list):
        return [f"{path.name}: top-level 'entries' must be a list"]
    problems = []
    # Entries without a ``benchmark`` field belong to the engine suite.
    names = {
        entry.get("benchmark", "engine") for entry in entries if isinstance(entry, dict)
    }
    header = loaded.get("benchmark")
    if names and header not in names:
        problems.append(
            f"{path.name}: header 'benchmark' is {header!r} but its entries "
            f"are {sorted(names)}"
        )
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"entries[{i}]: must be an object")
            continue
        for key, expected in ENTRY_SCHEMA.items():
            value = entry.get(key)
            if not isinstance(value, expected) or (
                expected is str and not value.strip()
            ):
                problems.append(
                    f"entries[{i}]: field {key!r} must be a non-empty "
                    f"{expected.__name__}, got {value!r}"
                )
    return problems
