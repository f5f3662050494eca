"""Campaign executor: parallel == serial, seeding, manifests, bench artifact."""

import json

import pytest

from repro.exceptions import ExperimentFailedError, InvalidParameterError
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    CampaignExecutor,
    ResultCache,
    RunRequest,
    append_bench_entry,
    build_requests,
    derive_seed,
    run_campaign_experiments,
)
from repro.runtime.executor import _peak_overlap

#: Cheap registry experiments used throughout (sub-100ms each).
FAST = ["figure3", "figure4", "table2"]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "empirical") == derive_seed(42, "empirical")

    def test_varies_with_experiment_and_base(self):
        seeds = {derive_seed(42, n) for n in ("empirical", "ablation", "waiting")}
        assert len(seeds) == 3
        assert derive_seed(1, "empirical") != derive_seed(2, "empirical")


class TestBuildRequests:
    def test_overrides_filtered_by_accepts(self):
        reqs = build_requests(
            ["figure2", "figure3", "table2"], overrides={"P": 40, "ell": 2, "seed": 7}
        )
        by_name = {r.experiment: dict(r.kwargs) for r in reqs}
        assert by_name == {"figure2": {"P": 40}, "figure3": {"ell": 2}, "table2": {}}

    def test_none_overrides_dropped(self):
        (req,) = build_requests(["figure2"], overrides={"P": None})
        assert dict(req.kwargs) == {}

    def test_base_seed_spawns_only_where_accepted(self):
        reqs = build_requests(["certificates", "figure3"], base_seed=99)
        by_name = {r.experiment: dict(r.kwargs) for r in reqs}
        assert by_name["certificates"] == {"seed": derive_seed(99, "certificates")}
        assert by_name["figure3"] == {}

    def test_explicit_seed_wins_over_spawned(self):
        (req,) = build_requests(
            ["certificates"], overrides={"seed": 5}, base_seed=99
        )
        assert dict(req.kwargs) == {"seed": 5}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_requests(["table9"])


class TestExecutor:
    def test_parallel_reports_byte_identical_to_serial(self):
        serial = run_campaign_experiments(names=FAST, jobs=1, cache=None)
        parallel = run_campaign_experiments(names=FAST, jobs=2, cache=None)
        for name in FAST:
            assert parallel.reports[name].to_json() == serial.reports[name].to_json()
            assert parallel.reports[name] == serial.reports[name]

    def test_duplicate_experiment_rejected(self):
        executor = CampaignExecutor(jobs=1)
        with pytest.raises(InvalidParameterError, match="duplicate"):
            executor.run([RunRequest("table2"), RunRequest("table2")])

    def test_worker_failure_names_the_experiment(self):
        executor = CampaignExecutor(jobs=1)
        with pytest.raises(RuntimeError, match="figure2"):
            # family="roofline" is an invalid figure2 configuration.
            executor.run([RunRequest("figure2", {"family": "roofline"})])

    def test_worker_failure_is_typed(self):
        executor = CampaignExecutor(jobs=1)
        with pytest.raises(ExperimentFailedError):
            executor.run([RunRequest("figure2", {"family": "roofline"})])

    def test_second_run_is_all_hits_with_identical_reports(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign_experiments(names=FAST, jobs=1, cache=cache)
        second = run_campaign_experiments(names=FAST, jobs=1, cache=cache)
        assert second.manifest.cache_hit_rate() == 1.0
        for name in FAST:
            assert second.reports[name] == first.reports[name]

    def test_refresh_recomputes_despite_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign_experiments(names=FAST, jobs=1, cache=cache)
        refreshed = run_campaign_experiments(
            names=FAST, jobs=1, cache=cache, refresh=True
        )
        statuses = {r.cache_status for r in refreshed.manifest.runs}
        assert statuses == {"refresh"}

    def test_no_cache_runs_uncached(self):
        outcome = run_campaign_experiments(names=["table2"], jobs=1, cache=None)
        (record,) = outcome.manifest.runs
        assert record.cache_status == "uncached"


class TestManifest:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        return run_campaign_experiments(names=FAST, jobs=2, cache=cache)

    def test_records_in_request_order(self, outcome):
        assert [r.experiment for r in outcome.manifest.runs] == FAST

    def test_record_fields(self, outcome):
        for record in outcome.manifest.runs:
            assert record.cache_status == "miss"
            assert record.wall_time_s >= 0
            assert record.worker.startswith("pid-")
            assert record.result_digest == outcome.reports[record.experiment].digest()

    def test_peak_in_flight_bounded_by_jobs(self, outcome):
        assert 1 <= outcome.manifest.peak_in_flight <= 2

    def test_written_manifest_schema(self, outcome, tmp_path):
        path = outcome.manifest.write(tmp_path / "manifest.json")
        payload = json.loads(path.read_text())
        assert payload["jobs"] == 2
        assert payload["n_runs"] == len(FAST)
        assert set(payload["cache_stats"]) == {
            "hits",
            "misses",
            "stores",
            "invalidations",
        }
        assert {r["experiment"] for r in payload["runs"]} == set(FAST)
        assert payload["serial_equivalent_s"] >= 0

    def test_bench_trajectory_appends(self, outcome, tmp_path):
        path = tmp_path / "BENCH_experiments.json"
        append_bench_entry(path, outcome.manifest)
        append_bench_entry(path, outcome.manifest)
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "experiments-campaign"
        assert len(payload["entries"]) == 2
        entry = payload["entries"][0]
        assert set(entry["per_experiment"]) == set(FAST)
        assert "runs" not in entry

    def test_bench_restarts_on_corrupt_file(self, outcome, tmp_path):
        path = tmp_path / "BENCH_experiments.json"
        path.write_text("not json")
        append_bench_entry(path, outcome.manifest)
        assert len(json.loads(path.read_text())["entries"]) == 1


class TestMetricsPropagation:
    def test_computed_run_carries_engine_metrics(self):
        outcome = run_campaign_experiments(names=["figure2"], jobs=1, cache=None)
        (record,) = outcome.manifest.runs
        assert record.metrics is not None
        registry = MetricsRegistry.from_dict(record.metrics)
        assert registry.value("engine.runs") >= 1
        assert registry.value("engine.events") > 0

    def test_analytic_experiment_has_no_metrics(self):
        outcome = run_campaign_experiments(names=["table2"], jobs=1, cache=None)
        (record,) = outcome.manifest.runs
        assert record.metrics is None

    def test_cache_hit_replays_stored_metrics(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign_experiments(names=["figure2"], jobs=1, cache=cache)
        second = run_campaign_experiments(names=["figure2"], jobs=1, cache=cache)
        assert first.manifest.runs[0].metrics is not None
        assert second.manifest.runs[0].cache_status == "hit"
        assert second.manifest.runs[0].metrics == first.manifest.runs[0].metrics

    def test_worker_metrics_merge_in_the_parent(self):
        outcome = run_campaign_experiments(
            names=["figure2", "figure4"], jobs=2, cache=None
        )
        per_run = [r.metrics for r in outcome.manifest.runs if r.metrics]
        assert per_run, "simulation experiments must report metrics"
        merged = MetricsRegistry()
        for snapshot in per_run:
            merged.merge(snapshot)
        total_runs = sum(
            MetricsRegistry.from_dict(snapshot).value("engine.runs")
            for snapshot in per_run
        )
        assert merged.value("engine.runs") == total_runs

    def test_manifest_json_carries_metrics(self, tmp_path):
        outcome = run_campaign_experiments(names=["figure2"], jobs=1, cache=None)
        path = outcome.manifest.write(tmp_path / "manifest.json")
        (run,) = json.loads(path.read_text())["runs"]
        assert "engine.runs" in run["metrics"]

    def test_bench_entry_carries_metrics(self, tmp_path):
        outcome = run_campaign_experiments(names=["figure2"], jobs=1, cache=None)
        path = tmp_path / "BENCH_experiments.json"
        append_bench_entry(path, outcome.manifest)
        entry = json.loads(path.read_text())["entries"][0]
        assert "metrics" in entry["per_experiment"]["figure2"]


class TestExecutorClock:
    def test_frozen_clock_makes_all_runs_concurrent(self):
        # peak_in_flight is computed from clock()-stamped windows; freezing
        # the injected clock proves the stamps really come from it.
        executor = CampaignExecutor(jobs=1, clock=lambda: 0.0)
        outcome = executor.run([RunRequest(n) for n in FAST])
        assert outcome.manifest.peak_in_flight == len(FAST)

    def test_default_clock_is_wall_time(self):
        import time

        assert CampaignExecutor(jobs=1).clock is time.time


class TestPeakOverlap:
    def test_disjoint(self):
        assert _peak_overlap([(0, 1), (2, 3)]) == 1

    def test_nested(self):
        assert _peak_overlap([(0, 10), (1, 2), (3, 4)]) == 2

    def test_all_concurrent(self):
        assert _peak_overlap([(0, 5), (1, 6), (2, 7)]) == 3

    def test_empty(self):
        assert _peak_overlap([]) == 0
