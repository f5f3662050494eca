"""File discovery and rule execution.

:func:`lint_source` checks one source string; :func:`lint_paths` walks
files and directories, skipping caches and hidden directories.  Both
apply suppression comments and return findings in deterministic sorted
order.

Both entry points take one ``rules`` list and run each rule by its kind:
per-file rules see one AST at a time, whole-program **semantic rules**
(:mod:`repro.lint.semantic`) see the whole parsed project, built from
the same parsed files.  Semantic findings anchor at concrete source
locations, so the same per-line suppression comments apply — the engine
filters each semantic finding through the suppression table of its
anchor file.  :func:`lint_paths` additionally accepts an
:class:`~repro.lint.semantic.cache.AnalysisCache`: per-file results
replay by content hash, the semantic result replays by whole-project
fingerprint, and a warm run with no edits does no parsing at all.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.context import FileContext, module_name_for
from repro.lint.findings import Finding
from repro.lint.registry import AnyRule, Rule, SemanticRule, resolve_codes
from repro.lint.semantic.cache import AnalysisCache, content_hash, ruleset_signature
from repro.lint.semantic.project import build_project
from repro.lint.suppressions import Suppressions, parse_suppressions

__all__ = ["LintReport", "iter_python_files", "lint_source", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "node_modules", ".mypy_cache"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Files that could not be parsed: ``(path, error message)``.
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 on findings or parse errors."""
        return 1 if (self.findings or self.errors) else 0

    def merge(self, other: "LintReport") -> None:
        """Fold ``other``'s counts and findings into this report."""
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked
        self.suppressed += other.suppressed
        self.errors.extend(other.errors)

    def sort(self) -> None:
        """Sort findings into the canonical (path, line, col, code) order."""
        self.findings.sort()


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order.

    Directories are walked recursively; cache and VCS directories are
    skipped.  Non-Python files given explicitly are ignored (so globs may
    be passed verbatim).
    """
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path


def _split(
    rules: Iterable[AnyRule] | None,
) -> tuple[list[Rule], list[SemanticRule]]:
    """Partition the active rules by kind (default: every per-file rule)."""
    active = list(rules) if rules is not None else resolve_codes()
    return (
        [r for r in active if isinstance(r, Rule)],
        [r for r in active if isinstance(r, SemanticRule)],
    )


def _lint_file(
    source: str, path: str, module: str | None, rules: Sequence[Rule]
) -> tuple[LintReport, FileContext | None]:
    """Parse one file, run the per-file rules, and return the parsed context."""
    report = LintReport(files_checked=1)
    try:
        ctx = FileContext.from_source(source, path=path, module=module)
    except (SyntaxError, ValueError) as exc:
        report.errors.append((path, f"parse error: {exc}"))
        return report, None
    suppressions = parse_suppressions(source)
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if suppressions.is_suppressed(finding.line, finding.code):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    report.sort()
    return report, ctx


def _semantic_pass(
    rules: Sequence[SemanticRule], contexts: list[FileContext]
) -> LintReport:
    """Run semantic rules over parsed contexts, applying suppressions."""
    project = build_project(contexts)
    sources = {ctx.path: ctx.source for ctx in contexts}
    suppression_tables: dict[str, Suppressions] = {}
    report = LintReport()
    for rule in rules:
        for finding in rule.check(project):
            table = suppression_tables.get(finding.path)
            if table is None and finding.path in sources:
                table = parse_suppressions(sources[finding.path])
                suppression_tables[finding.path] = table
            if table is not None and table.is_suppressed(finding.line, finding.code):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    return report


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    rules: Iterable[AnyRule] | None = None,
) -> LintReport:
    """Lint one source string and return its report.

    ``module`` scopes package-restricted rules (e.g. RL002 only runs on
    ``repro.sim`` / ``repro.core``); leave it ``None`` for standalone
    snippets, which count as in-scope for every rule.  ``rules`` defaults
    to every per-file rule; semantic rules among them run against the
    single-file project — fixture tests exercise cross-file analyzers
    this way.
    """
    file_rules, semantic_rules = _split(rules)
    report, ctx = _lint_file(source, path, module, file_rules)
    if ctx is not None and semantic_rules:
        report.merge(_semantic_pass(semantic_rules, [ctx]))
        report.sort()
    return report


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Iterable[AnyRule] | None = None,
    cache: AnalysisCache | None = None,
) -> LintReport:
    """Lint every Python file under ``paths`` and return the merged report.

    ``rules`` defaults to every per-file rule.  Each file is parsed at
    most once: the semantic rules among ``rules`` see the same contexts
    the per-file rules checked.  With a ``cache``, unchanged files replay
    their recorded results and — when the whole input set is unchanged —
    the semantic pass replays from the project fingerprint without
    parsing anything; a file whose per-file results replay while the
    project changed is parsed once, for the semantic pass only.  The
    caller owns persistence (:meth:`AnalysisCache.save`).
    """
    file_rules, semantic_rules = _split(rules)
    file_sig = ruleset_signature([r.code for r in file_rules])

    report = LintReport()
    sources: dict[str, str] = {}
    modules: dict[str, str | None] = {}
    digests: dict[str, str] = {}
    for file_path in iter_python_files([Path(p) for p in paths]):
        path = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.errors.append((path, f"read error: {exc}"))
            report.files_checked += 1
            continue
        sources[path] = source
        modules[path] = module_name_for(file_path)
        digests[path] = content_hash(source)

    # ``contexts`` collects the parsed files when the semantic pass must
    # run; it stays ``None`` when there is none or the cache replays it.
    semantic: LintReport | None = None
    contexts: list[FileContext] | None = None
    if semantic_rules:
        sem_sig = ruleset_signature([r.code for r in semantic_rules])
        fingerprint = AnalysisCache.project_fingerprint(sorted(digests.items()))
        replay_sem = (
            cache.get_semantic(fingerprint, sem_sig) if cache is not None else None
        )
        if replay_sem is not None:
            semantic = LintReport(findings=replay_sem[0], suppressed=replay_sem[1])
        else:
            contexts = []

    for path, source in sources.items():
        replay = (
            cache.get_file(path, digests[path], file_sig) if cache is not None else None
        )
        if replay is not None:
            findings, suppressed, errors = replay
            report.merge(
                LintReport(
                    findings=findings,
                    files_checked=1,
                    suppressed=suppressed,
                    errors=errors,
                )
            )
            if contexts is not None and not errors:
                contexts.append(
                    FileContext.from_source(source, path=path, module=modules[path])
                )
            continue
        file_report, ctx = _lint_file(source, path, modules[path], file_rules)
        if cache is not None:
            cache.put_file(
                path,
                digests[path],
                file_sig,
                file_report.findings,
                file_report.suppressed,
                file_report.errors,
            )
        report.merge(file_report)
        if contexts is not None and ctx is not None:
            contexts.append(ctx)

    if contexts is not None:
        semantic = _semantic_pass(semantic_rules, contexts)
        if cache is not None:
            cache.put_semantic(
                fingerprint, sem_sig, semantic.findings, semantic.suppressed
            )
    if semantic is not None:
        report.merge(semantic)
    report.sort()
    return report
