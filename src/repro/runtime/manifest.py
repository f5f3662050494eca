"""Run manifests and benchmark artifacts for experiment campaigns.

Every campaign writes two machine-readable artifacts:

* ``results/manifest.json`` — a :class:`RunManifest`: one :class:`RunRecord`
  per experiment run (wall time, cache status, worker id, result digest)
  plus campaign-level totals (peak concurrency, cache stats, speedup).
* ``BENCH_experiments.json`` — an append-only timing trajectory, one entry
  per campaign invocation, seeding the repo's performance record.

``serial_equivalent_s`` is the cost of recomputing every run from scratch in
one process: the sum of per-run *compute* times, with cache hits contributing
the compute time recorded when their entry was first stored.  The reported
``speedup_vs_serial`` = serial-equivalent / actual wall time therefore
captures both parallelism and caching.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro._version import __version__
from repro.runtime.serialization import encode_value

__all__ = [
    "RunRecord",
    "RunManifest",
    "append_bench_entry",
    "append_engine_bench_entry",
    "current_commit",
]


def current_commit(cwd: Path | str | None = None) -> str:
    """Short git hash of ``HEAD``, for benchmark-entry provenance.

    Benchmark trajectories (``BENCH_engine.json``) require every entry to
    say which code produced it; this is the stamp.  Returns ``"unknown"``
    outside a git checkout (or when git itself is unavailable) rather
    than failing — provenance must never break a benchmark run.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10.0,
            cwd=None if cwd is None else str(cwd),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else "unknown"


@dataclass(frozen=True)
class RunRecord:
    """Observability record for one experiment run inside a campaign."""

    experiment: str
    kwargs: Mapping[str, Any]
    #: ``"hit"`` (served from cache), ``"miss"`` (computed and stored),
    #: ``"refresh"`` (recomputed despite a valid entry), or
    #: ``"uncached"`` (computed with caching disabled).
    cache_status: str
    #: Time this run occupied in the campaign (load time for hits).
    wall_time_s: float
    #: Cost of computing the result (for hits: as recorded at store time).
    compute_time_s: float
    #: Worker that produced the result (``"pid-<n>"``, ``"cache"``).
    worker: str
    #: Content address of the resulting report.
    result_digest: str
    #: Per-run metrics snapshot
    #: (:meth:`~repro.obs.metrics.MetricsRegistry.as_dict` form) collected
    #: while the run computed; ``None`` when collection was off.  Cache
    #: hits carry the metrics stored with the entry at compute time.
    metrics: Mapping[str, Any] | None = None
    #: For quarantined runs (``cache_status == "quarantined"``): the
    #: failure description, one line per exhausted attempt.  ``None`` for
    #: successful runs.
    error: str | None = None
    #: Engine backend the run was computed under (``"reference"`` or
    #: ``"batch"``); cache hits carry the backend their entry was keyed on.
    backend: str = "reference"
    #: Batch compute kernel pinned for the run (``"numpy"``/``"numba"``/
    #: ``"python"``, already resolved), or ``None`` when the campaign left
    #: the ambient/environment selection in charge.  Not part of the cache
    #: key — kernels are bit-identical by contract.
    kernel: str | None = None

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "experiment": self.experiment,
            "kwargs": encode_value(dict(self.kwargs)),
            "cache_status": self.cache_status,
            "wall_time_s": round(self.wall_time_s, 6),
            "compute_time_s": round(self.compute_time_s, 6),
            "worker": self.worker,
            "result_digest": self.result_digest,
            "backend": self.backend,
        }
        if self.kernel is not None:
            payload["kernel"] = self.kernel
        if self.metrics is not None:
            payload["metrics"] = dict(self.metrics)
        if self.error is not None:
            payload["error"] = self.error
        return payload


@dataclass
class RunManifest:
    """Everything observable about one campaign invocation."""

    jobs: int
    wall_time_s: float
    #: Peak number of runs executing concurrently (from worker timestamps).
    peak_in_flight: int
    cache_stats: Mapping[str, int]
    runs: list[RunRecord] = field(default_factory=list)
    version: str = __version__
    #: Engine backend the campaign selected (``"reference"`` by default).
    backend: str = "reference"
    #: Resolved batch kernel the campaign pinned, or ``None`` (ambient).
    kernel: str | None = None

    @property
    def serial_equivalent_s(self) -> float:
        return sum(r.compute_time_s for r in self.runs)

    @property
    def speedup_vs_serial(self) -> float:
        if self.wall_time_s <= 0:
            return 1.0
        return self.serial_equivalent_s / self.wall_time_s

    def cache_hit_rate(self) -> float:
        if not self.runs:
            return 0.0
        hits = sum(1 for r in self.runs if r.cache_status == "hit")
        return hits / len(self.runs)

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "backend": self.backend,
            **({} if self.kernel is None else {"kernel": self.kernel}),
            "jobs": self.jobs,
            "n_runs": len(self.runs),
            "wall_time_s": round(self.wall_time_s, 6),
            "serial_equivalent_s": round(self.serial_equivalent_s, 6),
            "speedup_vs_serial": round(self.speedup_vs_serial, 3),
            "peak_in_flight": self.peak_in_flight,
            "cache_hit_rate": round(self.cache_hit_rate(), 4),
            "cache_stats": dict(self.cache_stats),
            "runs": [r.as_dict() for r in self.runs],
        }

    def write(self, path: Path | str) -> Path:
        """Write the manifest as indented JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=1) + "\n")
        return path


def append_bench_entry(path: Path | str, manifest: RunManifest) -> Path:
    """Append this campaign's timings to the ``BENCH_experiments.json`` trajectory.

    The artifact is ``{"benchmark": "experiments-campaign", "entries": [...]}``;
    an unreadable existing file is restarted rather than crashed on.
    """
    path = Path(path)
    trajectory: dict[str, Any] = {"benchmark": "experiments-campaign", "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded.get("entries"), list):
                trajectory = loaded
        except (OSError, ValueError):
            pass
    entry = manifest.as_dict()
    entry["per_experiment"] = {
        r.experiment: (
            {
                "compute_time_s": round(r.compute_time_s, 6),
                "cache_status": r.cache_status,
            }
            | ({} if r.metrics is None else {"metrics": dict(r.metrics)})
        )
        for r in manifest.runs
    }
    del entry["runs"]
    trajectory["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return path


def append_engine_bench_entry(path: Path | str, entry: Mapping[str, Any]) -> Path:
    """Append one benchmark entry to a ``BENCH_*.json`` trajectory.

    Same append-only discipline as :func:`append_bench_entry`, under the
    artifact header ``{"benchmark": <name>, "entries": [...]}``.  A new
    file takes ``<name>`` from the entry's ``benchmark`` field (default
    ``"engine"``, the ``BENCH_engine.json`` suite); an existing file keeps
    its header.  Entries typically carry per-benchmark timings plus the
    :class:`~repro.sim.engine.EngineStats` counters of the timed runs (see
    ``benchmarks/conftest.py``).
    """
    path = Path(path)
    trajectory: dict[str, Any] = {
        "benchmark": entry.get("benchmark", "engine"),
        "entries": [],
    }
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded.get("entries"), list):
                trajectory = loaded
        except (OSError, ValueError):
            pass
    trajectory["entries"].append(encode_value(dict(entry)))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return path
