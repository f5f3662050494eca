"""The top-level ``benchmark`` header of engine-style BENCH trajectories.

``append_engine_bench_entry`` names a new file after its first entry's
``benchmark`` field, and ``benchmarks/_provenance.validate_engine_bench``
reports a header that matches none of the file's entries (the defect that
left ``BENCH_lint.json`` headed ``"engine"``).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.runtime.manifest import append_engine_bench_entry

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def provenance():
    spec = importlib.util.spec_from_file_location(
        "bench_provenance", REPO / "benchmarks" / "_provenance.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(**fields):
    return {
        "label": "test entry",
        "commit": "abc1234",
        "unix_time": 1,
        "benchmarks": {"x_s": 1.0},
        **fields,
    }


class TestAppendHeader:
    def test_new_file_takes_entry_benchmark(self, tmp_path):
        path = tmp_path / "BENCH_lint.json"
        append_engine_bench_entry(path, entry(benchmark="lint"))
        assert json.loads(path.read_text())["benchmark"] == "lint"

    def test_new_file_defaults_to_engine(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        append_engine_bench_entry(path, entry())
        assert json.loads(path.read_text())["benchmark"] == "engine"

    def test_existing_header_is_kept(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        append_engine_bench_entry(path, entry())
        append_engine_bench_entry(path, entry(benchmark="batch"))
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "engine"
        assert len(payload["entries"]) == 2


class TestValidateHeader:
    def test_written_files_validate(self, tmp_path, provenance):
        path = tmp_path / "BENCH_lint.json"
        append_engine_bench_entry(path, entry(benchmark="lint"))
        assert provenance.validate_engine_bench(path) == []

    def test_mismatched_header_reported(self, tmp_path, provenance):
        path = tmp_path / "BENCH_lint.json"
        path.write_text(
            json.dumps({"benchmark": "engine", "entries": [entry(benchmark="lint")]})
        )
        (problem,) = provenance.validate_engine_bench(path)
        assert "'engine'" in problem and "lint" in problem

    def test_mixed_file_matching_one_entry_is_valid(self, tmp_path, provenance):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(
            json.dumps(
                {"benchmark": "engine", "entries": [entry(), entry(benchmark="batch")]}
            )
        )
        assert provenance.validate_engine_bench(path) == []

    @pytest.mark.parametrize("name", ["BENCH_engine.json", "BENCH_lint.json"])
    def test_committed_trajectories_validate(self, name, provenance):
        assert provenance.validate_engine_bench(REPO / name) == []
