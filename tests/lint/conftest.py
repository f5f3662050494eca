"""Shared helpers for the lint test suite."""

from collections.abc import Callable
from pathlib import Path

import pytest

from repro.lint import LintReport, lint_source
from repro.lint.context import FileContext, module_name_for
from repro.lint.findings import Finding
from repro.lint.registry import get_rule
from repro.lint.semantic.project import build_project

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Fixture snippets are stored as ``.txt`` so the repository's own lint run
#: (``python -m repro.lint src tests``) does not trip over the deliberate
#: violations inside the positive fixtures.
RULE_CODES = (
    "RL001",
    "RL002",
    "RL003",
    "RL004",
    "RL005",
    "RL006",
    "RL007",
    "RL008",
    "RL012",
)

#: Whole-program rules; their fixtures run through the semantic pass of
#: :func:`lint_semantic_fixture` (single-file projects) instead of the
#: per-file pass.
SEMANTIC_CODES = ("RL009",)

#: A minimal RL009 violation that no per-file rule flags: the allocator
#: reads ``model.k``, which ``LeakyModel.cache_key()`` does not cover.  The
#: one finding anchors at line 6, ``class LeakyModel(SpeedupModel):``;
#: keying on ``(self.w, self.k)`` makes the source clean.
LEAKY_MODEL = (
    "class SpeedupModel:\n"
    "    def cache_key(self) -> object:\n"
    "        return None\n"
    "\n"
    "\n"
    "class LeakyModel(SpeedupModel):\n"
    "    def __init__(self, w: float, k: float) -> None:\n"
    "        self.w = w\n"
    "        self.k = k\n"
    "\n"
    "    def cache_key(self) -> object:\n"
    "        return (self.w,)\n"
    "\n"
    "\n"
    "class Allocator:\n"
    "    def allocate(self, model: SpeedupModel, P: int) -> int:\n"
    "        return P if model.k > 1 else 1\n"
)


def lint_fixture(name: str, *, module: str | None = None) -> LintReport:
    """Lint one fixture snippet as a standalone (module-less) file."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, path=name, module=module)


def lint_semantic_fixture(
    name: str, code: str, *, module: str | None = None
) -> LintReport:
    """Run one semantic rule against a fixture as a single-file project."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(
        source,
        path=name,
        module=module,
        rules=[get_rule(code)],
    )


def tree_findings(
    code: str,
    dirs: list[str],
    *,
    mutate: Callable[[Path, str], str] | None = None,
) -> list[Finding]:
    """Run one semantic rule over real repository subtrees.

    ``mutate`` receives ``(path, source)`` per file and may return edited
    source — the seeded-mutation tests prove the analyzers are not
    vacuously clean on the real tree.
    """
    contexts = []
    for d in dirs:
        for path in sorted((REPO_ROOT / d).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            if mutate is not None:
                source = mutate(path, source)
            contexts.append(
                FileContext.from_source(
                    source, path=str(path), module=module_name_for(path)
                )
            )
    project = build_project(contexts)
    return list(get_rule(code).check(project))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
