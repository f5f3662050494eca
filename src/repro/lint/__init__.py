"""Static analysis of the repro codebase's correctness contracts.

The test suite checks this repository's invariants *dynamically*: golden
digests pin bit-exact schedules, campaign tests pin parallel-equals-serial
execution, allocator-cache tests pin Algorithm 2's memoization.  This
package enforces the *preconditions* of those invariants statically, at
review time, as per-file AST rules (RL001–RL008, RL012) plus the
whole-program semantic rule RL009.  Both kinds register into one
registry (:mod:`repro.lint.registry`), every file is parsed once per
run, and the output is a report in text, JSON or SARIF.  A finding is
accepted in one way only: a per-line ``# repro-lint: disable=CODE``
comment with a reason.  The linter never rewrites source.

Usage::

    python -m repro.lint src tests           # lint, exit 1 on findings
    python -m repro.lint --list-rules        # describe every rule
    python -m repro.lint --format json src   # machine-readable report
    python -m repro.lint src tests --semantic  # + whole-program rules

See ``docs/static-analysis.md`` for the rule catalogue and the invariant
each rule protects.
"""

from repro.lint.context import FileContext
from repro.lint.engine import LintReport, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.registry import (
    Rule,
    SemanticRule,
    all_rules,
    get_rule,
    register,
    resolve_codes,
)
from repro.lint.reporters import render_json, render_rule_list, render_text
from repro.lint.suppressions import Suppressions, parse_suppressions

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "SemanticRule",
    "Suppressions",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "register",
    "render_json",
    "render_rule_list",
    "render_text",
    "resolve_codes",
]
