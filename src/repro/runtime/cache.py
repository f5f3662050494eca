"""Content-addressed on-disk cache of experiment reports.

Layout: one JSON file per entry under the cache root, named by the entry's
key — ``sha256(canonical_json({experiment, kwargs, version}))``.  The key
covers the resolved keyword arguments *and* the package version, so a
changed override or a version bump is automatically a miss; no mtime or
dependency tracking is needed.  Entries store the report (via
:meth:`ExperimentReport.to_json`'s encoding), the compute wall time, and the
report's content digest, which is re-verified on load — a corrupted or
tampered entry is evicted with a warning and recomputed, never served.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro._version import __version__
from repro.experiments.registry import ExperimentReport
from repro.runtime.serialization import content_digest, decode_value, encode_value

__all__ = ["CacheEntry", "CacheStats", "ResultCache"]

#: On-disk schema version; bumping it invalidates every existing entry.
_SCHEMA = 1


@dataclass(frozen=True)
class CacheEntry:
    """A deserialized cache hit."""

    report: ExperimentReport
    compute_time_s: float
    created_s: float
    #: Metrics-registry snapshot recorded when the entry was computed
    #: (:meth:`~repro.obs.metrics.MetricsRegistry.as_dict` form), or
    #: ``None`` for entries stored without metrics collection.
    metrics: dict[str, Any] | None = None


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries that existed but were evicted (corrupt or digest mismatch).
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
        }


class ResultCache:
    """Content-addressed store of :class:`ExperimentReport` results."""

    def __init__(
        self,
        root: Path | str,
        version: str = __version__,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.version = version
        self.stats = CacheStats()
        #: Wall-clock source for ``created_s`` stamps.  Injectable so tests
        #: pin entry timestamps deterministically; the stamp is metadata
        #: only and never enters cache keys or digests.
        self.clock = clock

    # -- keys ------------------------------------------------------------

    def key_for(self, experiment: str, kwargs: Mapping[str, Any]) -> str:
        """Content address of one run: experiment id + kwargs + version."""
        payload: dict[str, Any] = {
            "schema": _SCHEMA,
            "experiment": experiment,
            "kwargs": dict(kwargs),
            "version": self.version,
        }
        return content_digest(payload)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- read ------------------------------------------------------------

    def get(self, experiment: str, kwargs: Mapping[str, Any]) -> CacheEntry | None:
        """Return the cached entry for this run, or ``None`` on a miss.

        A present-but-unreadable entry (truncated file, bad JSON, digest
        mismatch) counts as an invalidation: it is deleted, a warning is
        emitted, and the caller recomputes.
        """
        key = self.key_for(experiment, kwargs)
        path = self._path(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
            report = ExperimentReport(
                name=payload["name"],
                title=payload["title"],
                text=payload["text"],
                data=decode_value(payload["data"]),
            )
            if payload["digest"] != report.digest():
                raise ValueError("content digest mismatch")
            entry = CacheEntry(
                report=report,
                compute_time_s=float(payload["compute_time_s"]),
                created_s=float(payload["created_s"]),
                metrics=payload.get("metrics"),
            )
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            # RecursionError: a pathologically nested entry blows the
            # recursion limit inside json.loads / decode_value / digest()
            # — corruption, same as any other unreadable entry.
            warnings.warn(
                f"evicting corrupt cache entry for {experiment!r} "
                f"({path.name}): {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            path.unlink(missing_ok=True)
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    # -- write -----------------------------------------------------------

    def put(
        self,
        experiment: str,
        kwargs: Mapping[str, Any],
        report: ExperimentReport,
        compute_time_s: float,
        metrics: Mapping[str, Any] | None = None,
    ) -> str:
        """Store a computed report; returns the entry key.

        The write is atomic (temp file + rename) so a concurrent reader
        never observes a half-written entry.
        """
        key = self.key_for(experiment, kwargs)
        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": _SCHEMA,
            "key": key,
            "experiment": experiment,
            "kwargs": encode_value(dict(kwargs)),
            "version": self.version,
            "name": report.name,
            "title": report.title,
            "text": report.text,
            "data": encode_value(report.data),
            "digest": report.digest(),
            "compute_time_s": compute_time_s,
            "created_s": self.clock(),
            "metrics": None if metrics is None else dict(metrics),
        }
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        os.replace(tmp, path)
        self.stats.stores += 1
        return key

    # -- maintenance -----------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
