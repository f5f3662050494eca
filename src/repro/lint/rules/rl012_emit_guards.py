"""RL012: event emission must be guarded by an enabled-check.

Tracing is opt-in everywhere in the fast paths: the engine and the
service both carry an *optional* emit callable
(``emit: _Emit | None = None``, ``self.emit``) that is ``None`` when the
run is untraced.  The disabled-tracing overhead budget (<= 2% on the
BENCH_engine scenarios) depends on every emission site short-circuiting
**before** it constructs an event object: an unguarded
``self.emit(TaskStarted(...))`` both crashes on untraced runs and, when
an ``emit or noop`` shim hides the crash, silently pays event-allocation
cost on every hot-loop iteration.

The rule fires in ``repro.sim`` / ``repro.batch`` / ``repro.service`` on:

* ``<chain>.emit(...)`` attribute calls (``self.emit(e)``,
  ``tracer.emit(e)``) that are not lexically inside an ``if``/ternary
  whose condition mentions the callable chain (``self.emit``) or its
  receiver (``tracer``);
* bare ``emit(...)`` calls whose binding resolves to an enclosing
  function parameter declared *optional* (``emit: _Emit | None = None``)
  without such a guard.

A bare ``emit(...)`` bound to a **required** parameter (``emit: Emit``)
is the blessed pattern for dedicated tracing helpers — the enabled-check
happened at the call boundary — and is not flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_SCOPED_PACKAGES = ("repro.sim", "repro.batch", "repro.service")


def _chain(node: ast.expr) -> str | None:
    """Render a plain ``Name``/``Attribute`` chain as dotted text."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _condition_chains(test: ast.expr) -> set[str]:
    """Every dotted chain mentioned anywhere in a guard condition."""
    chains: set[str] = set()
    for node in ast.walk(test):
        if isinstance(node, (ast.Name, ast.Attribute)):
            rendered = _chain(node)
            if rendered is not None:
                chains.add(rendered)
    return chains


def _annotation_is_optional(annotation: ast.expr | None) -> bool:
    """``X | None`` / ``Optional[X]`` / ``None`` annotations."""
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and node.value is None:
            return True
        if isinstance(node, ast.Name) and node.id == "Optional":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Optional":
            return True
    return False


def _optional_emit_param(
    func_stack: list[ast.FunctionDef | ast.AsyncFunctionDef],
) -> bool | None:
    """Whether the ``emit`` name visible here is an optional parameter.

    Walks the enclosing functions innermost-first (closures see outer
    parameters).  Returns ``None`` when no enclosing function declares an
    ``emit`` parameter — the binding is unknown and the rule stays quiet.
    """
    for func in reversed(func_stack):
        args = func.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in all_args:
            if arg.arg != "emit":
                continue
            if _annotation_is_optional(arg.annotation):
                return True
            # Match defaults to trailing positional args / kwonly args.
            positional = [*args.posonlyargs, *args.args]
            if arg in positional and args.defaults:
                offset = len(positional) - len(args.defaults)
                index = positional.index(arg) - offset
                if index >= 0:
                    default = args.defaults[index]
                    if isinstance(default, ast.Constant) and default.value is None:
                        return True
            if arg in args.kwonlyargs:
                default = args.kw_defaults[args.kwonlyargs.index(arg)]
                if isinstance(default, ast.Constant) and default.value is None:
                    return True
            return False
    return None


@register
class EmitGuardRule(Rule):
    code = "RL012"
    name = "emit-guard"
    description = (
        "optional event emitters (self.emit / emit=None parameters) must "
        "be called behind an enabled-guard so untraced runs pay nothing"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module is None:
            return True  # standalone snippets (fixtures) stay in scope
        return any(
            ctx.module == pkg or ctx.module.startswith(pkg + ".")
            for pkg in _SCOPED_PACKAGES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._visit(ctx, ctx.tree.body, guards=set(), funcs=[])

    def _visit(
        self,
        ctx: FileContext,
        body: list[ast.stmt],
        guards: set[str],
        funcs: list[ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._visit_stmt(ctx, stmt, guards, funcs)

    def _visit_stmt(
        self,
        ctx: FileContext,
        stmt: ast.stmt,
        guards: set[str],
        funcs: list[ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A new function body: lexical guards from the enclosing
            # scope do not protect calls that run later.
            yield from self._visit(ctx, stmt.body, set(), [*funcs, stmt])
            return
        if isinstance(stmt, ast.ClassDef):
            yield from self._visit(ctx, stmt.body, set(), funcs)
            return
        if isinstance(stmt, ast.If):
            yield from self._check_expr(ctx, stmt.test, guards, funcs)
            inner = guards | _condition_chains(stmt.test)
            yield from self._visit(ctx, stmt.body, inner, funcs)
            yield from self._visit(ctx, stmt.orelse, guards, funcs)
            return
        for field_name, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                yield from self._check_expr(ctx, value, guards, funcs)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        yield from self._visit_stmt(ctx, item, guards, funcs)
                    elif isinstance(item, ast.expr):
                        yield from self._check_expr(ctx, item, guards, funcs)

    def _check_expr(
        self,
        ctx: FileContext,
        expr: ast.expr,
        guards: set[str],
        funcs: list[ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if isinstance(node, ast.IfExp):
                # Conservative: the condition's chains guard both arms;
                # ast.walk gives no branch structure, and a ternary's
                # whole point here is `x.emit(e) if x else None`.
                guards = guards | _condition_chains(node.test)
            if not isinstance(node, ast.Call):
                continue
            finding = self._check_call(ctx, node, guards, funcs)
            if finding is not None:
                yield finding

    def _check_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        guards: set[str],
        funcs: list[ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> Finding | None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "emit":
            full = _chain(func)
            base = _chain(func.value)
            subjects = {s for s in (full, base) if s not in (None, "self")}
            if subjects & guards:
                return None
            label = full if full is not None else "<...>.emit"
            return self.finding(
                ctx,
                call.lineno,
                call.col_offset,
                f"'{label}(...)' is not behind an enabled-guard — wrap it in "
                f"'if {base if base not in (None, 'self') else full} is not "
                "None:' so untraced runs skip event construction",
            )
        if isinstance(func, ast.Name) and func.id == "emit":
            if "emit" in guards:
                return None
            if _optional_emit_param(funcs) is not True:
                return None  # required parameter or unknown binding
            return self.finding(
                ctx,
                call.lineno,
                call.col_offset,
                "'emit(...)' calls an optional emitter (emit=None parameter) "
                "without an 'if emit is not None:' guard",
            )
        return None
