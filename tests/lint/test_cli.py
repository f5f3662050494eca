"""End-to-end CLI tests for ``python -m repro.lint``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.lint.conftest import LEAKY_MODEL

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_lint(*argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
        check=False,
    )


@pytest.fixture
def dirty_tree(tmp_path: Path) -> Path:
    (tmp_path / "dirty.py").write_text(
        "import random\n\n\ndef draw() -> float:\n    return random.random()\n",
        encoding="utf-8",
    )
    (tmp_path / "clean.py").write_text("X = 1\n", encoding="utf-8")
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path: Path):
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        proc = run_lint(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_findings_exit_one(self, dirty_tree: Path):
        proc = run_lint(str(dirty_tree))
        assert proc.returncode == 1
        assert "RL001" in proc.stdout

    def test_unknown_code_exits_two(self, tmp_path: Path):
        proc = run_lint(str(tmp_path), "--select", "RL999")
        assert proc.returncode == 2
        assert "RL999" in proc.stderr

    def test_missing_path_exits_two(self, tmp_path: Path):
        proc = run_lint(str(tmp_path / "nowhere"))
        assert proc.returncode == 2


class TestOutputFormats:
    def test_text_report_names_location_and_code(self, dirty_tree: Path):
        proc = run_lint(str(dirty_tree))
        assert "dirty.py:5:" in proc.stdout
        assert "RL001" in proc.stdout
        assert "1 finding" in proc.stdout

    def test_json_report_is_machine_readable(self, dirty_tree: Path):
        proc = run_lint(str(dirty_tree), "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["version"] == 1
        assert payload["files_checked"] == 2
        codes = [f["code"] for f in payload["findings"]]
        assert codes == ["RL001"]

    def test_list_rules(self):
        proc = run_lint("--list-rules")
        assert proc.returncode == 0
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"):
            assert code in proc.stdout


class TestSelection:
    def test_ignore_silences_rule(self, dirty_tree: Path):
        proc = run_lint(str(dirty_tree), "--ignore", "RL001")
        assert proc.returncode == 0

    def test_select_runs_only_named_rules(self, dirty_tree: Path):
        proc = run_lint(str(dirty_tree), "--select", "RL002,RL003")
        assert proc.returncode == 0
        proc = run_lint(str(dirty_tree), "--select", "RL001")
        assert proc.returncode == 1


@pytest.fixture
def leaky_tree(tmp_path: Path) -> Path:
    (tmp_path / "leaky.py").write_text(LEAKY_MODEL, encoding="utf-8")
    return tmp_path


class TestSemanticFlags:
    def test_semantic_off_by_default(self, leaky_tree: Path):
        assert run_lint(str(leaky_tree)).returncode == 0

    def test_semantic_flag_enables_whole_program_rules(self, leaky_tree: Path):
        proc = run_lint(str(leaky_tree), "--semantic")
        assert proc.returncode == 1
        assert "RL009" in proc.stdout

    def test_selecting_a_semantic_code_implies_semantic(self, leaky_tree: Path):
        proc = run_lint(str(leaky_tree), "--select", "RL009")
        assert proc.returncode == 1
        assert "RL009" in proc.stdout

    def test_list_rules_includes_semantic_tier(self):
        proc = run_lint("--list-rules")
        assert "RL009" in proc.stdout
        assert "[semantic]" in proc.stdout

    def test_list_rules_names_ten_rules_one_semantic(self):
        proc = run_lint("--list-rules")
        heads = [line for line in proc.stdout.splitlines() if line.startswith("RL")]
        assert [line.split()[0] for line in heads] == [
            *(f"RL00{i}" for i in range(1, 9)), "RL012", "RL009"
        ]
        assert [line.split()[0] for line in heads if "[semantic]" in line] == ["RL009"]

    def test_sarif_rules_match_list_rules(self):
        listed = [
            line.split()[0]
            for line in run_lint("--list-rules").stdout.splitlines()
            if line.startswith("RL")
        ]
        proc = run_lint("--format", "sarif", str(REPO_ROOT / "src" / "repro" / "types.py"))
        driver = json.loads(proc.stdout)["runs"][0]["tool"]["driver"]
        assert [rule["id"] for rule in driver["rules"]] == sorted(listed)

    def test_cache_round_trip(self, leaky_tree: Path, tmp_path: Path):
        cache = tmp_path / "lint-cache.json"
        cold = run_lint(str(leaky_tree), "--semantic", "--cache", str(cache))
        assert cache.exists()
        warm = run_lint(str(leaky_tree), "--semantic", "--cache", str(cache))
        assert warm.stdout == cold.stdout
        assert warm.returncode == cold.returncode == 1

    def test_sarif_output(self, leaky_tree: Path):
        proc = run_lint(str(leaky_tree), "--semantic", "--format", "sarif")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "RL009" for r in results)
