"""Static analysis of the repro codebase's correctness contracts.

The test suite checks this repository's invariants *dynamically*: golden
digests pin bit-exact schedules, campaign tests pin parallel-equals-serial
execution, allocator-cache tests pin Algorithm 2's memoization.  This
package enforces the *preconditions* of those invariants statically, at
review time, as per-file AST rules (RL001–RL008, RL012) plus
whole-program semantic rules (RL009–RL010), with per-line
``# repro-lint: disable=CODE`` suppressions and text/JSON reporters.

Usage::

    python -m repro.lint src tests           # lint, exit 1 on findings
    python -m repro.lint --list-rules        # describe every rule
    python -m repro.lint --format json src   # machine-readable report

See ``docs/static-analysis.md`` for the rule catalogue and the invariant
each rule protects.
"""

from repro.lint.context import FileContext
from repro.lint.engine import LintReport, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, get_rule, register, resolve_codes
from repro.lint.reporters import render_json, render_rule_list, render_text
from repro.lint.suppressions import Suppressions, parse_suppressions

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
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
