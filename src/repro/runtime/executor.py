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

import multiprocessing
import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import (
    ExperimentFailedError,
    InvalidParameterError,
    RunQuarantinedError,
)
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


def _child_execute(
    conn: Any,
    experiment: str,
    kwargs: dict[str, Any],
    clock: Callable[[], float],
) -> None:
    """Sandboxed-process entry: run one experiment, ship the outcome back.

    The child never raises across the pipe — failures travel as
    ``{"ok": False}``.  Non-``Exception`` exits (``SystemExit``,
    ``KeyboardInterrupt``) take down the child, which the parent detects
    via pipe EOF and reports as a crashed worker.
    """
    try:
        conn.send(
            {
                "ok": True,
                "result": _execute(experiment, kwargs, clock),
            }
        )
    except Exception as exc:
        conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def _execute_isolated(
    experiment: str,
    kwargs: dict[str, Any],
    clock: Callable[[], float],
    timeout_s: float | None,
) -> dict[str, Any]:
    """Run one attempt in a dedicated process with a hard wall-clock cap.

    A hung experiment is terminated (then killed) when ``timeout_s``
    elapses; a crashed worker (died without reporting) is detected via
    pipe EOF.  Both surface as :class:`ExperimentFailedError`, which the
    retry policy treats as one failed attempt.
    """
    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(
        target=_child_execute,
        args=(child_conn, experiment, dict(kwargs), clock),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    try:
        if not parent_conn.poll(timeout_s):
            raise ExperimentFailedError(
                f"experiment {experiment!r} timed out after {timeout_s}s"
            )
        try:
            payload = parent_conn.recv()
        except EOFError:
            raise ExperimentFailedError(
                f"experiment {experiment!r} worker died "
                f"(exit code {proc.exitcode})"
            ) from None
    finally:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():  # terminate() ignored: force it
            proc.kill()
            proc.join(timeout=5.0)
        parent_conn.close()
    if not payload.get("ok"):
        raise ExperimentFailedError(
            f"experiment {experiment!r} failed in worker: {payload.get('error')}"
        )
    result = payload["result"]
    assert isinstance(result, dict)
    return result


def _execute_with_policy(
    experiment: str,
    kwargs: dict[str, Any],
    clock: Callable[[], float],
    *,
    timeout_s: float | None,
    max_retries: int,
    backoff_s: float,
) -> dict[str, Any]:
    """One run under the resilience policy: timeout, bounded retries, backoff.

    With a timeout configured every attempt runs in its own sandbox
    process (a hung attempt must be killable); without one, attempts run
    in-process and only Python-level failures are retryable.  After the
    budget is exhausted the run is *quarantined*:
    :class:`~repro.exceptions.RunQuarantinedError` carries every
    attempt's failure for the manifest.
    """
    attempts: list[str] = []
    for attempt in range(max_retries + 1):
        if attempt and backoff_s > 0:
            time.sleep(backoff_s * 2 ** (attempt - 1))
        try:
            if timeout_s is not None:
                return _execute_isolated(experiment, kwargs, clock, timeout_s)
            return _execute(experiment, kwargs, clock)
        except ExperimentFailedError as exc:
            attempts.append(str(exc))
    raise RunQuarantinedError(
        f"experiment {experiment!r} quarantined after "
        f"{len(attempts)} failed attempt(s): {attempts[-1]}",
        experiment=experiment,
        attempts=tuple(attempts),
    )


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
    """What a campaign produced: reports by experiment id + the manifest.

    ``failures`` maps quarantined experiment ids to their
    :class:`~repro.exceptions.RunQuarantinedError` (empty unless the
    executor ran with ``quarantine=True`` and a run exhausted its retry
    budget).  Quarantined experiments have no entry in ``reports``.
    """

    reports: dict[str, ExperimentReport]
    manifest: RunManifest
    failures: dict[str, RunQuarantinedError] = field(default_factory=dict)

    def report_for(self, experiment: str) -> ExperimentReport:
        """Return the report, re-raising the quarantine error if the run failed."""
        failure = self.failures.get(experiment)
        if failure is not None:
            raise failure
        return self.reports[experiment]


class CampaignExecutor:
    """Run a batch of experiments with caching and optional parallelism.

    Resilience policy (all off by default, preserving the fast path):

    * ``run_timeout_s`` — hard wall-clock cap per attempt; every attempt
      then runs in its own sandbox process so a hung or crashed
      experiment can be killed without taking the campaign down;
    * ``max_retries`` — failed attempts are retried with exponential
      backoff (``retry_backoff_s * 2**k``) up to this many times;
    * ``quarantine`` — after the budget is exhausted the run is recorded
      in the manifest (``cache_status="quarantined"``, with the
      per-attempt errors) and the campaign continues; without it the
      :class:`~repro.exceptions.RunQuarantinedError` propagates.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        refresh: bool = False,
        clock: Callable[[], float] = time.time,
        *,
        run_timeout_s: float | None = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.05,
        quarantine: bool = False,
    ) -> None:
        check_positive_int(jobs, "jobs")
        if run_timeout_s is not None and run_timeout_s <= 0:
            raise InvalidParameterError(
                f"run_timeout_s must be > 0 or None, got {run_timeout_s}"
            )
        if max_retries < 0:
            raise InvalidParameterError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if retry_backoff_s < 0:
            raise InvalidParameterError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        self.jobs = jobs
        self.cache = cache
        self.refresh = refresh
        #: Wall-clock source for per-run start/end stamps (injectable for
        #: deterministic tests; must be picklable when ``jobs > 1``).
        self.clock = clock
        self.run_timeout_s = run_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.quarantine = quarantine

    @property
    def _hardened(self) -> bool:
        """Whether runs go through the timeout/retry/quarantine path."""
        return (
            self.run_timeout_s is not None
            or self.max_retries > 0
            or self.quarantine
        )

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
        failures: dict[str, RunQuarantinedError] = {}
        if to_compute and self._hardened:
            self._run_hardened(to_compute, raw, failures, records)
        elif to_compute and self.jobs > 1:
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
            if request.experiment in failures:
                continue  # quarantined: recorded by _run_hardened
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
        return CampaignOutcome(
            reports=reports, manifest=manifest, failures=failures
        )

    def _run_hardened(
        self,
        to_compute: Sequence[RunRequest],
        raw: dict[str, dict[str, Any]],
        failures: dict[str, RunQuarantinedError],
        records: dict[str, RunRecord],
    ) -> None:
        """Execute requests under the timeout/retry/quarantine policy.

        Attempts run in sandbox processes when a timeout is set, so the
        fan-out here uses threads: each thread just blocks on its own
        child's pipe.  Quarantined runs land in ``failures`` +
        ``records`` (or re-raise when ``quarantine`` is off).
        """

        def attempt(
            request: RunRequest,
        ) -> tuple[dict[str, Any] | RunQuarantinedError, float]:
            t0 = time.perf_counter()
            try:
                result = _execute_with_policy(
                    request.experiment,
                    dict(request.kwargs),
                    self.clock,
                    timeout_s=self.run_timeout_s,
                    max_retries=self.max_retries,
                    backoff_s=self.retry_backoff_s,
                )
            except RunQuarantinedError as exc:
                return exc, time.perf_counter() - t0
            return result, time.perf_counter() - t0

        outcomes: dict[str, tuple[dict[str, Any] | RunQuarantinedError, float]] = {}
        if self.jobs > 1:
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                futures = {
                    request.experiment: pool.submit(attempt, request)
                    for request in to_compute
                }
                for name, future in futures.items():
                    outcomes[name] = future.result()
        else:
            for request in to_compute:
                outcomes[request.experiment] = attempt(request)

        for request in to_compute:
            outcome, wall_s = outcomes[request.experiment]
            if isinstance(outcome, RunQuarantinedError):
                if not self.quarantine:
                    raise outcome
                failures[request.experiment] = outcome
                records[request.experiment] = RunRecord(
                    experiment=request.experiment,
                    kwargs=request.kwargs,
                    cache_status="quarantined",
                    wall_time_s=wall_s,
                    compute_time_s=0.0,
                    worker="quarantined",
                    result_digest="",
                    error="; ".join(outcome.attempts) or str(outcome),
                )
            else:
                raw[request.experiment] = outcome


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
