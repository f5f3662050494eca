"""Campaign executor: fan experiment runs out over worker processes.

The executor takes a list of :class:`RunRequest`\\ s (experiment id +
resolved keyword arguments), serves what it can from the
:class:`~repro.runtime.cache.ResultCache`, and computes the rest — inline
for ``jobs=1``, on a ``ProcessPoolExecutor`` otherwise.

Two properties make ``--jobs N`` results bit-identical to a serial run:

* **Order-free seeding.**  Per-run seeds are *spawned*, not drawn: each run
  that accepts a ``seed`` and was not given one explicitly gets
  ``derive_seed(base_seed, experiment_id)`` — a ``numpy.random.SeedSequence``
  keyed on the campaign seed and the experiment id alone.  No run's seed
  depends on scheduling order or on which worker picks it up.
* **A single serialization path.**  Workers return reports as JSON text
  (:meth:`ExperimentReport.to_json`) and the parent decodes them; the inline
  path round-trips through the same codec.  Whatever executes the run, the
  bytes the campaign observes are the same.

Requests are validated and cache-keyed *before* anything is submitted, and
the manifest lists runs in request order regardless of completion order.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ExperimentFailedError, InvalidParameterError
from repro.experiments.registry import REGISTRY, ExperimentReport, get_spec
from repro.obs.metrics import MetricsRegistry, collect_metrics
from repro.runtime.cache import ResultCache
from repro.runtime.manifest import RunManifest, RunRecord
from repro.util.validation import check_positive_int

__all__ = [
    "RunRequest",
    "CampaignOutcome",
    "CampaignExecutor",
    "build_requests",
    "derive_seed",
    "run_campaign_experiments",
]


def derive_seed(base_seed: int, experiment: str) -> int:
    """Spawn a per-experiment seed from the campaign seed.

    Keyed on ``(base_seed, crc32(experiment))`` through a
    ``numpy.random.SeedSequence``, so the result depends only on the
    campaign seed and the experiment id — never on submission or
    completion order.
    """
    entropy = [base_seed, zlib.crc32(experiment.encode("utf-8"))]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class RunRequest:
    """One experiment run: registry id + fully resolved keyword arguments."""

    experiment: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        get_spec(self.experiment)  # raises on unknown ids


def build_requests(
    names: Iterable[str],
    overrides: Mapping[str, Any] | None = None,
    base_seed: int | None = None,
) -> list[RunRequest]:
    """Resolve CLI-style overrides into one :class:`RunRequest` per experiment.

    Each experiment receives the subset of ``overrides`` its registry spec
    declares in ``accepts``.  With ``base_seed`` set, every experiment that
    accepts a ``seed`` (and has no explicit override) gets a derived one.
    """
    overrides = dict(overrides or {})
    requests = []
    for name in names:
        spec = get_spec(name)
        kwargs = {
            key: value
            for key, value in overrides.items()
            if key in spec.accepts and value is not None
        }
        if base_seed is not None and "seed" in spec.accepts and "seed" not in kwargs:
            kwargs["seed"] = derive_seed(base_seed, name)
        requests.append(RunRequest(experiment=name, kwargs=kwargs))
    return requests


def _execute(
    experiment: str,
    kwargs: dict[str, Any],
    clock: Callable[[], float] = time.time,
) -> dict[str, Any]:
    """Worker entry point: run one experiment, return its report as JSON.

    Every run computes under a fresh ambient
    :class:`~repro.obs.metrics.MetricsRegistry`, so engine counters of
    simulations buried inside the experiment land in the returned
    ``metrics`` snapshot — collected per worker process and merged by the
    parent (metrics collection never perturbs results; see
    ``docs/observability.md``).  ``clock`` stamps the wall-clock window
    used for peak-concurrency accounting (injectable for tests; must be
    picklable when ``jobs > 1``).
    """
    spec = get_spec(experiment)
    t_start = clock()
    t0 = time.perf_counter()
    registry = MetricsRegistry()
    try:
        with collect_metrics(registry):
            report = spec(**kwargs)
    except Exception as exc:
        raise ExperimentFailedError(
            f"experiment {experiment!r} failed: {exc}"
        ) from exc
    compute_time = time.perf_counter() - t0
    return {
        "json": report.to_json(),
        "compute_time_s": compute_time,
        "t_start": t_start,
        "t_end": t_start + compute_time,
        "worker": f"pid-{os.getpid()}",
        "metrics": registry.as_dict() if len(registry) else None,
    }


def _peak_overlap(intervals: Sequence[tuple[float, float]]) -> int:
    """Peak number of simultaneously open ``(start, end)`` intervals."""
    events = sorted(
        [(t, +1) for t, _ in intervals] + [(t, -1) for _, t in intervals],
        key=lambda e: (e[0], e[1]),
    )
    peak = live = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    return peak


@dataclass(frozen=True)
class CampaignOutcome:
    """What a campaign produced: reports by experiment id + the manifest."""

    reports: dict[str, ExperimentReport]
    manifest: RunManifest


class CampaignExecutor:
    """Run a batch of experiments with caching and optional parallelism."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        refresh: bool = False,
        clock: Callable[[], float] = time.time,
    ) -> None:
        check_positive_int(jobs, "jobs")
        self.jobs = jobs
        self.cache = cache
        self.refresh = refresh
        #: Wall-clock source for per-run start/end stamps (injectable for
        #: deterministic tests; must be picklable when ``jobs > 1``).
        self.clock = clock

    def run(self, requests: Sequence[RunRequest]) -> CampaignOutcome:
        """Execute every request; returns reports and the run manifest."""
        seen: set[str] = set()
        for request in requests:
            if request.experiment in seen:
                raise InvalidParameterError(
                    f"duplicate experiment {request.experiment!r} in campaign"
                )
            seen.add(request.experiment)

        t_campaign = time.perf_counter()
        records: dict[str, RunRecord] = {}
        reports: dict[str, ExperimentReport] = {}
        to_compute: list[RunRequest] = []

        for request in requests:
            entry = None
            if self.cache is not None and not self.refresh:
                t0 = time.perf_counter()
                entry = self.cache.get(request.experiment, request.kwargs)
                load_time = time.perf_counter() - t0
            if entry is None:
                to_compute.append(request)
                continue
            reports[request.experiment] = entry.report
            records[request.experiment] = RunRecord(
                experiment=request.experiment,
                kwargs=request.kwargs,
                cache_status="hit",
                wall_time_s=load_time,
                compute_time_s=entry.compute_time_s,
                worker="cache",
                result_digest=entry.report.digest(),
                metrics=entry.metrics,
            )

        raw: dict[str, dict[str, Any]] = {}
        if to_compute and self.jobs > 1:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = {
                    request.experiment: pool.submit(
                        _execute,
                        request.experiment,
                        dict(request.kwargs),
                        self.clock,
                    )
                    for request in to_compute
                }
                for name, future in futures.items():
                    raw[name] = future.result()
        else:
            for request in to_compute:
                raw[request.experiment] = _execute(
                    request.experiment,
                    dict(request.kwargs),
                    self.clock,
                )

        if self.cache is None:
            status = "uncached"
        elif self.refresh:
            status = "refresh"
        else:
            status = "miss"
        for request in to_compute:
            result = raw[request.experiment]
            report = ExperimentReport.from_json(result["json"])
            reports[request.experiment] = report
            if self.cache is not None:
                self.cache.put(
                    request.experiment,
                    request.kwargs,
                    report,
                    compute_time_s=result["compute_time_s"],
                    metrics=result["metrics"],
                )
            records[request.experiment] = RunRecord(
                experiment=request.experiment,
                kwargs=request.kwargs,
                cache_status=status,
                wall_time_s=result["compute_time_s"],
                compute_time_s=result["compute_time_s"],
                worker=result["worker"],
                result_digest=report.digest(),
                metrics=result["metrics"],
            )

        manifest = RunManifest(
            jobs=self.jobs,
            wall_time_s=time.perf_counter() - t_campaign,
            peak_in_flight=_peak_overlap(
                [(r["t_start"], r["t_end"]) for r in raw.values()]
            ),
            cache_stats=(
                self.cache.stats.as_dict()
                if self.cache is not None
                else {"hits": 0, "misses": 0, "stores": 0, "invalidations": 0}
            ),
            runs=[records[request.experiment] for request in requests],
        )
        return CampaignOutcome(reports=reports, manifest=manifest)


def run_campaign_experiments(
    names: Iterable[str] | None = None,
    overrides: Mapping[str, Any] | None = None,
    base_seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    refresh: bool = False,
) -> CampaignOutcome:
    """Convenience wrapper: build requests for ``names`` (default: the whole
    registry, sorted) and execute them."""
    names = sorted(REGISTRY) if names is None else list(names)
    requests = build_requests(names, overrides=overrides, base_seed=base_seed)
    executor = CampaignExecutor(jobs=jobs, cache=cache, refresh=refresh)
    return executor.run(requests)
