"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit codes: 0 clean, 1 findings or parse errors, 2 usage error.

Beyond the per-file rules, ``--semantic`` runs the whole-program
analyzers (RL009–RL010); ``--cache`` makes warm re-runs replay unchanged
results; ``--baseline`` subtracts committed, justified findings so only
*new* findings fail; ``--fix`` applies mechanically safe rewrites
(``--diff`` previews them).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.fixes import fix_paths, render_fix_diff
from repro.lint.registry import all_rules, resolve_codes
from repro.lint.reporters import (
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)
from repro.lint.semantic.base import resolve_semantic_codes, semantic_codes
from repro.lint.semantic.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.semantic.cache import AnalysisCache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis of repro's correctness contracts "
        "(per-file RL001-RL008 and RL012, semantic RL009-RL010).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="run only these rule codes (repeatable, comma-separated ok)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODE",
        help="skip these rule codes (repeatable, comma-separated ok)",
    )
    parser.add_argument(
        "--semantic",
        action="store_true",
        help="also run the whole-program semantic analyzers (RL009-RL010)",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help="incremental analysis cache file (created when missing); "
        "unchanged files and an unchanged project replay instantly",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed baseline of accepted findings; only findings NOT in "
        "the baseline fail the run (stale entries are reported)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply mechanically safe fixes (zip strict=, pytest.approx in "
        "tests) instead of linting",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="with --fix: print the changes as a unified diff, write nothing",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_codes(values: list[str] | None) -> list[str] | None:
    if values is None:
        return None
    return [code for value in values for code in value.split(",") if code]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(render_rule_list())
        return 0
    if options.diff and not options.fix:
        parser.error("--diff requires --fix")
    if options.update_baseline and not options.baseline:
        parser.error("--update-baseline requires --baseline PATH")
    missing = [path for path in options.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    if options.fix:
        results = fix_paths(options.paths, write=not options.diff)
        if options.diff:
            sys.stdout.write(render_fix_diff(results))
        total = sum(len(r.fixes) for r in results)
        verb = "would apply" if options.diff else "applied"
        print(f"{verb} {total} fix(es) in {len(results)} file(s)")
        return 0

    select = _split_codes(options.select)
    ignore = _split_codes(options.ignore)
    sem_codes = semantic_codes()
    known = {rule.code for rule in all_rules()} | sem_codes
    requested = [c.strip().upper() for c in (select or []) + (ignore or [])]
    unknown = sorted(set(requested) - known)
    if unknown:
        parser.error(f"unknown rule code(s): {', '.join(unknown)}")

    # The per-file resolver rejects codes it does not know, so semantic
    # codes are partitioned out of the selection before it runs.
    per_file_select = (
        [c for c in select if c.strip().upper() not in sem_codes]
        if select is not None
        else None
    )
    rules = resolve_codes(per_file_select, ignore)

    semantic_requested = options.semantic or any(
        c.strip().upper() in sem_codes for c in (select or [])
    )
    semantic_rules = (
        resolve_semantic_codes(select, ignore) if semantic_requested else None
    )

    cache = AnalysisCache(options.cache) if options.cache else None
    report = lint_paths(
        options.paths, rules=rules, semantic_rules=semantic_rules, cache=cache
    )
    if cache is not None:
        cache.save()

    stale_lines: list[str] = []
    if options.baseline and options.update_baseline:
        write_baseline(options.baseline, report.findings)
        print(
            f"baseline updated: {len(report.findings)} finding(s) "
            f"recorded in {options.baseline}"
        )
        return 0
    if options.baseline:
        try:
            baseline = load_baseline(options.baseline)
        except ValueError as exc:
            parser.error(str(exc))
        result = apply_baseline(report.findings, baseline)
        report.findings = result.new
        report.baselined = result.matched
        stale_lines = [
            f"stale baseline entry (no longer fires): {path}: {code} {message}"
            for path, code, message in result.stale
        ]

    if options.format == "json":
        print(render_json(report))
    elif options.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    for line in stale_lines:
        print(line, file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
