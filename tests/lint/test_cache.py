"""Incremental analysis cache: replay, invalidation, corruption."""

from pathlib import Path

from repro.lint import lint_paths, resolve_codes
from repro.lint.semantic.cache import AnalysisCache, content_hash, ruleset_signature
from tests.lint.conftest import LEAKY_MODEL

DIRTY = "import random\n\n\ndef draw() -> float:\n    return random.random()\n"


def make_tree(tmp_path: Path) -> Path:
    (tmp_path / "dirty.py").write_text(DIRTY, encoding="utf-8")
    (tmp_path / "leaky.py").write_text(LEAKY_MODEL, encoding="utf-8")
    return tmp_path


def run(tree: Path, cache: AnalysisCache):
    report = lint_paths([tree], rules=resolve_codes(semantic=True), cache=cache)
    cache.save()
    return report


class TestReplay:
    def test_warm_run_replays_everything(self, tmp_path: Path):
        tree = make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        cold_cache = AnalysisCache(cache_path)
        cold = run(tree, cold_cache)
        assert cold_cache.hits == 0 and cold_cache.misses >= 3  # 2 files + semantic

        warm_cache = AnalysisCache(cache_path)
        warm = run(tree, warm_cache)
        assert warm_cache.misses == 0 and warm_cache.hits >= 3
        assert warm.findings == cold.findings
        assert [f.message for f in warm.findings] == [f.message for f in cold.findings]
        assert warm.suppressed == cold.suppressed

    def test_replayed_codes_match_live_run(self, tmp_path: Path):
        tree = make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        run(tree, AnalysisCache(cache_path))
        warm = run(tree, AnalysisCache(cache_path))
        assert {f.code for f in warm.findings} == {"RL001", "RL009"}


class TestInvalidation:
    def test_edited_file_relints_and_refreshes_semantic(self, tmp_path: Path):
        tree = make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        run(tree, AnalysisCache(cache_path))

        # Key the leaked attribute: the semantic fingerprint and the file
        # entry must both invalidate, and the RL009 finding must disappear.
        (tree / "leaky.py").write_text(
            LEAKY_MODEL.replace("(self.w,)", "(self.w, self.k)"),
            encoding="utf-8",
        )
        cache = AnalysisCache(cache_path)
        report = run(tree, cache)
        assert cache.hits >= 1  # dirty.py replays untouched
        assert cache.misses >= 2  # leaky.py + the whole-program entry
        assert {f.code for f in report.findings} == {"RL001"}

    def test_ruleset_signature_depends_on_codes(self):
        assert ruleset_signature(["RL001"]) != ruleset_signature(["RL002"])
        assert ruleset_signature(["RL001", "RL002"]) == ruleset_signature(
            ["RL001", "RL002"]
        )

    def test_content_hash_is_content_sensitive(self):
        assert content_hash("a = 1\n") != content_hash("a = 2\n")


class TestRobustness:
    def test_corrupt_cache_degrades_to_cold(self, tmp_path: Path):
        tree = make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json", encoding="utf-8")
        cache = AnalysisCache(cache_path)
        report = run(tree, cache)
        assert cache.hits == 0
        assert {f.code for f in report.findings} == {"RL001", "RL009"}
        # The save overwrote the corruption; the next run is warm.
        cache2 = AnalysisCache(cache_path)
        run(tree, cache2)
        assert cache2.misses == 0

    def test_wrong_schema_version_ignored(self, tmp_path: Path):
        tree = make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text('{"version": 999, "files": {}}', encoding="utf-8")
        cache = AnalysisCache(cache_path)
        run(tree, cache)
        assert cache.hits == 0

    def test_save_without_changes_is_noop(self, tmp_path: Path):
        tree = make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        run(tree, AnalysisCache(cache_path))
        mtime = cache_path.stat().st_mtime_ns
        warm = AnalysisCache(cache_path)
        run(tree, warm)
        assert cache_path.stat().st_mtime_ns == mtime
