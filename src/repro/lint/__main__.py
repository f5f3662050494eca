"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit codes: 0 clean, 1 findings or parse errors, 2 usage error.

Beyond the per-file rules, ``--semantic`` runs the whole-program
analyzer (RL009); ``--cache`` makes warm re-runs replay unchanged
results.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.registry import resolve_codes
from repro.lint.reporters import (
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)
from repro.lint.semantic.cache import AnalysisCache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis of repro's correctness contracts "
        "(per-file RL001-RL008 and RL012, semantic RL009).",
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
        help="also run the whole-program semantic analyzer (RL009)",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help="incremental analysis cache file (created when missing); "
        "unchanged files and an unchanged project replay instantly",
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
    missing = [path for path in options.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    # Semantic rules run with --semantic, or when one is selected.
    try:
        rules = resolve_codes(
            _split_codes(options.select),
            _split_codes(options.ignore),
            semantic=options.semantic,
        )
    except ValueError as exc:
        parser.error(str(exc))

    cache = AnalysisCache(options.cache) if options.cache else None
    report = lint_paths(options.paths, rules=rules, cache=cache)
    if cache is not None:
        cache.save()

    if options.format == "json":
        print(render_json(report))
    elif options.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
