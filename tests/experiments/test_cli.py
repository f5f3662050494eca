"""Tests for the ``python -m repro.experiments`` command-line interface."""

import json

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_figure3_with_ell(self, capsys):
        assert main(["figure3", "--ell", "2"]) == 0
        out = capsys.readouterr().out
        assert "K=4" in out

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_empirical_with_overrides(self, capsys):
        assert main(["empirical", "--P", "16", "--seed", "1"]) == 0
        assert "algorithm1" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [[], ["--metrics"]], ids=["alone", "with-metrics"])
    def test_profile_prints_engine_stats(self, capsys, extra):
        # figure4's engine counters, summed over every run it makes.
        block = (
            "\nengine stats: 4 events | 26 tasks started\n"
            "queue: 4 scans (0 skipped), 26 scan steps\n"
            "allocator: 26 calls, 25 cache hits / 1 misses / 0 bypasses "
            "(96.2% hit rate)\n\n"
        )
        assert main(["figure4", "--profile", *extra]) == 0
        out = capsys.readouterr().out
        assert out.count("engine stats:") == 1
        assert block in out
        assert ("metrics:" in out) == bool(extra)


class TestCampaignCli:
    def args(self, tmp_path, *extra):
        return [
            "campaign",
            "--select",
            "figure3",
            "--select",
            "table2",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--manifest",
            str(tmp_path / "manifest.json"),
            "--bench",
            str(tmp_path / "BENCH_experiments.json"),
            *extra,
        ]

    def test_campaign_writes_manifest_and_bench(self, tmp_path, capsys):
        assert main(self.args(tmp_path, "--jobs", "2")) == 0
        out = capsys.readouterr().out
        assert "cache hit rate" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["jobs"] == 2
        assert manifest["n_runs"] == 2
        assert {r["experiment"] for r in manifest["runs"]} == {"figure3", "table2"}
        bench = json.loads((tmp_path / "BENCH_experiments.json").read_text())
        assert len(bench["entries"]) == 1

    def test_second_campaign_run_hits_cache(self, tmp_path):
        assert main(self.args(tmp_path)) == 0
        assert main(self.args(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["cache_hit_rate"] == 1.0
        bench = json.loads((tmp_path / "BENCH_experiments.json").read_text())
        assert len(bench["entries"]) == 2

    def test_no_cache_never_stores(self, tmp_path):
        assert main(self.args(tmp_path, "--no-cache")) == 0
        assert not (tmp_path / "cache").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {r["cache_status"] for r in manifest["runs"]} == {"uncached"}

    def test_refresh_overwrites_entries(self, tmp_path):
        assert main(self.args(tmp_path)) == 0
        assert main(self.args(tmp_path, "--refresh")) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {r["cache_status"] for r in manifest["runs"]} == {"refresh"}

    def test_out_writes_report_files(self, tmp_path):
        assert main(self.args(tmp_path, "--out", str(tmp_path / "reports"))) == 0
        assert (tmp_path / "reports" / "figure3.txt").exists()
        assert (tmp_path / "reports" / "table2.txt").exists()

    def test_select_rejected_outside_campaign(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table2", "--select", "figure3"])

    def test_unknown_select_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self.args(tmp_path, "--select", "nope"))
