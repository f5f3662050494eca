"""The top-level ``benchmark`` header of engine-style BENCH trajectories.

``append_engine_bench_entry`` names a new file after its first entry's
``benchmark`` field, and ``benchmarks/_provenance.validate_engine_bench``
reports a header that matches none of the file's entries (the defect that
left ``BENCH_lint.json`` headed ``"engine"``).  ``bench_commit`` stamps
``<hash>-dirty`` on entries measured on a tree with uncommitted changes.
"""

import importlib.util
import json
import shutil
import subprocess
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


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=root, check=True, capture_output=True,
    )


@pytest.fixture
def checkout(tmp_path):
    """A one-commit git tree with a source file and a BENCH trajectory."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    (tmp_path / "BENCH_engine.json").write_text("{}\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestBenchCommit:
    def test_clean_tree_stamps_the_hash(self, checkout, provenance):
        commit = provenance.bench_commit(checkout)
        assert commit != "unknown" and not commit.endswith("-dirty")

    def test_uncommitted_change_stamps_dirty(self, checkout, provenance):
        clean = provenance.bench_commit(checkout)
        (checkout / "code.py").write_text("x = 2\n")
        assert provenance.bench_commit(checkout) == f"{clean}-dirty"

    def test_staged_change_stamps_dirty(self, checkout, provenance):
        (checkout / "code.py").write_text("x = 2\n")
        _git(checkout, "add", "code.py")
        assert provenance.bench_commit(checkout).endswith("-dirty")

    def test_appended_trajectory_is_not_a_code_change(self, checkout, provenance):
        clean = provenance.bench_commit(checkout)
        (checkout / "BENCH_engine.json").write_text('{"entries": []}\n')
        assert provenance.bench_commit(checkout) == clean

    def test_outside_a_checkout_is_unknown(self, tmp_path, provenance):
        assert provenance.bench_commit(tmp_path) == "unknown"
