"""RL008: no Python-level loops over task arrays in ``repro.batch``.

The batch engine's entire reason to exist is that the event loop is
amortized across runs with whole-array NumPy operations; a Python
``for`` over a per-task array silently reintroduces the O(n)
interpreter cost the engine was built to remove, and benchmarks only
catch it after the fact.  This rule catches it at lint time: inside
``repro.batch`` modules, a ``for`` statement whose iterable mentions a
task-array name (``task``/``succ``/``proc``/``alloc``/``indeg``/
``duration``/``slot``/``demand``/``queue``) or iterates
``range(len(...))`` is flagged.

Deliberate scalar loops exist — compilation walks the object graph
once, and materialization converts one run back to objects — and are
annotated with ``# repro-lint: disable=RL008`` (or ``disable-file`` for
:mod:`repro.batch.layout`, which is the designated object-to-array
boundary).  Loops over *runs* or *blocks* (batch-axis bookkeeping, a
few dozen iterations) are not flagged: the rule keys on per-task array
names, not on iteration itself.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Name stems that identify per-task arrays (matched case-insensitively
#: as substrings of any identifier in the loop's iterable).
_TASK_ARRAY_STEMS = (
    "task",
    "succ",
    "proc",
    "alloc",
    "indeg",
    "duration",
    "slot",
    "demand",
    "queue",
)

def _identifiers(expr: ast.expr) -> Iterator[str]:
    """Every plain identifier mentioned anywhere in ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _is_range_len(expr: ast.expr) -> bool:
    """Whether ``expr`` is a ``range(len(...))`` call (any extra args)."""
    if not (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)):
        return False
    if expr.func.id != "range" or not expr.args:
        return False
    return any(
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Name)
        and arg.func.id == "len"
        for arg in expr.args
    )


@register
class BatchVectorizationRule(Rule):
    code = "RL008"
    name = "batch-vectorization"
    description = (
        "no Python-level for loops over task arrays in repro.batch "
        "(the batch engine must stay whole-array vectorized)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro.batch")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if _is_range_len(node.iter):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "Python-level loop 'for ... in range(len(...))' in the "
                    "batch engine; index with whole-array operations instead",
                )
                continue
            stems = sorted(
                {
                    stem
                    for name in _identifiers(node.iter)
                    for stem in _TASK_ARRAY_STEMS
                    if stem in name.lower()
                }
            )
            if stems:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "Python-level loop over task array(s) "
                    f"({', '.join(stems)}) in the batch engine; use "
                    "vectorized NumPy operations, or justify with "
                    "'# repro-lint: disable=RL008'",
                )
