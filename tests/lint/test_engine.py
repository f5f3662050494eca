"""Engine behavior: file discovery, module naming, report aggregation."""

import ast
from collections.abc import Iterator
from pathlib import Path

import pytest

from repro.lint import (
    Rule,
    SemanticRule,
    all_rules,
    lint_paths,
    lint_source,
    register,
    resolve_codes,
)
from repro.lint.context import module_name_for
from repro.lint.engine import iter_python_files
from repro.lint.findings import Finding
from repro.lint.semantic.cache import AnalysisCache
from repro.lint.semantic.project import Project
from tests.lint.conftest import LEAKY_MODEL


class TestRegistry:
    def test_per_file_rules_registered(self):
        codes = [rule.code for rule in all_rules() if isinstance(rule, Rule)]
        assert codes == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
            "RL012",
        ]

    def test_codes_and_names_unique(self):
        rules = all_rules()
        assert len({r.code for r in rules}) == len(rules)
        assert len({r.name for r in rules}) == len(rules)

    def test_select_filters(self):
        rules = resolve_codes(select=["RL003"])
        assert [r.code for r in rules] == ["RL003"]

    def test_ignore_filters(self):
        rules = resolve_codes(ignore=["RL006"])
        assert "RL006" not in [r.code for r in rules]
        assert len(rules) == 8

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError):
            resolve_codes(select=["RL999"])

    def test_one_registry_holds_both_kinds(self):
        semantic = [r.code for r in all_rules() if isinstance(r, SemanticRule)]
        assert semantic == ["RL009"]
        assert len(all_rules()) == 10

    def test_semantic_rules_join_on_request_or_selection(self):
        codes = [r.code for r in resolve_codes(semantic=True)]
        assert codes[-2:] == ["RL009", "RL012"]
        assert len(codes) == 10
        selected = resolve_codes(select=["RL009", "RL001"])
        assert [r.code for r in selected] == ["RL001", "RL009"]
        ignored = resolve_codes(ignore=["RL009"], semantic=True)
        assert ignored == resolve_codes()

    def test_code_unique_across_kinds(self):
        class Clash(SemanticRule):
            code = "RL001"
            name = "clash"
            description = "reuses a per-file code"

            def check(self, project: Project) -> Iterator[Finding]:
                yield from ()

        all_rules()  # load the real rules first
        with pytest.raises(ValueError, match="RL001"):
            register(Clash)
        assert isinstance(resolve_codes(select=["RL001"])[0], Rule)


class TestModuleNaming:
    def test_package_file(self, tmp_path):
        pkg = tmp_path / "mypkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "mypkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        target = pkg / "mod.py"
        target.write_text("x = 1\n")
        assert module_name_for(target) == "mypkg.sub.mod"

    def test_standalone_file_has_no_module(self, tmp_path):
        target = tmp_path / "script.py"
        target.write_text("x = 1\n")
        assert module_name_for(target) is None

    def test_repo_module_names(self):
        assert module_name_for(Path("src/repro/sim/engine.py")) == "repro.sim.engine"


class TestFileDiscovery:
    def test_skips_pycache_and_sorts(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        found = [p.name for p in iter_python_files([tmp_path])]
        assert found == ["a.py", "b.py"]

    def test_explicit_non_python_file_ignored(self, tmp_path):
        txt = tmp_path / "snippet.txt"
        txt.write_text("x = 1\n")
        assert list(iter_python_files([txt])) == []


class TestReports:
    def test_parse_error_reported_not_raised(self):
        report = lint_source("def broken(:\n")
        assert report.findings == []
        assert len(report.errors) == 1
        assert report.exit_code == 1

    def test_clean_report_exit_zero(self):
        report = lint_source("X = 1\n")
        assert report.exit_code == 0

    def test_lint_paths_aggregates(self, tmp_path):
        (tmp_path / "one.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "two.py").write_text("X = 1\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert [f.code for f in report.findings] == ["RL001"]

    def test_findings_sorted_deterministically(self, tmp_path):
        (tmp_path / "z.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "a.py").write_text("import random\nrandom.random()\n")
        report = lint_paths([tmp_path])
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)


class TestSingleParse:
    """A run parses each file at most once, whichever rules it runs."""

    @pytest.fixture
    def parses(self, monkeypatch: pytest.MonkeyPatch) -> list[str]:
        seen: list[str] = []
        real = ast.parse

        def counting(source, filename="<unknown>", *args, **kwargs):
            seen.append(str(filename))
            return real(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        return seen

    def make_tree(self, tmp_path: Path) -> Path:
        (tmp_path / "leaky.py").write_text(LEAKY_MODEL)
        (tmp_path / "dirty.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "broken.py").write_text("def broken(:\n")
        return tmp_path

    def test_cold_semantic_run_parses_each_file_once(self, tmp_path, parses):
        tree = self.make_tree(tmp_path)
        report = lint_paths([tree], rules=resolve_codes(semantic=True))
        assert sorted(parses) == sorted(str(p) for p in tree.glob("*.py"))
        assert {f.code for f in report.findings} == {"RL001", "RL009"}
        assert len(report.errors) == 1

    def test_replayed_files_parse_once_for_a_changed_project(self, tmp_path, parses):
        tree = self.make_tree(tmp_path)
        rules = resolve_codes(semantic=True)
        cache = AnalysisCache(tmp_path / "cache.json")
        cold = lint_paths([tree], rules=rules, cache=cache)
        parses.clear()
        assert lint_paths([tree], rules=rules, cache=cache).findings == cold.findings
        assert parses == []  # a warm run replays without parsing
        (tree / "clean.py").write_text("X = 1\n")
        warm = lint_paths([tree], rules=rules, cache=cache)
        # dirty.py and leaky.py replay their per-file results and are parsed
        # once for the semantic pass; broken.py replays its parse error.
        assert sorted(parses) == sorted(
            str(tree / name) for name in ("clean.py", "dirty.py", "leaky.py")
        )
        assert warm.findings == cold.findings
        assert warm.errors == cold.errors
