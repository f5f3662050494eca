"""RL010: no unvalidated read-modify-write of shared state across ``await``.

The service's concurrency story (PR 6) is "the single-threaded event
loop is the lock": synchronous code blocks are atomic, so shared state
(``self`` attributes of long-lived objects, module globals) is safe to
mutate *within* one block.  An ``await`` breaks the block — any other
coroutine may run, and state read before the suspension may be stale
after it.  The classic bug shape is read → ``await`` → write-back:

.. code:: python

    if self.sessions < limit:          # read
        info = await self.admit(...)   # suspension: others run
        self.sessions = self.sessions_snapshot + 1   # stale write-back

This rule flags, inside ``async def`` functions of :mod:`repro.service`
(and unscoped fixture files):

* a write to ``self.X`` or a module global where the value was read
  before an intervening ``await`` and **not re-read after it** — the
  write-back may clobber concurrent updates;
* ``ContextVar.set()`` in an async function without a matching
  ``reset()`` in the same function — cross-task leakage of ambient
  state (``use_tracer`` shows the token discipline);
* ``global X`` declarations in async functions — module globals are
  shared across every task by construction.

Events are linearized by source position within one function body — a
sound over-approximation for straight-line code and the common
conditional shapes; reviewed exceptions (e.g. ``SchedulerServer.start``
rebinding ``host``/``port`` to the resolved socket address) belong in
the committed baseline with a justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.registry import SemanticRule, register
from repro.lint.semantic.project import FunctionInfo, ModuleInfo, Project

_SCOPES = ("repro.service",)


@dataclass(frozen=True)
class _Event:
    kind: str  # "read" | "write" | "await"
    name: str  # attribute/global name ("" for await)
    line: int
    col: int


def _in_scope(mod: ModuleInfo) -> bool:
    if mod.name.startswith("<"):
        return True  # fixture files outside any package
    return any(mod.name == s or mod.name.startswith(s + ".") for s in _SCOPES)


def _shared_name(node: ast.expr, globals_: set[str]) -> str | None:
    """Map an expression to a tracked shared-state name, if any."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    if isinstance(node, ast.Name) and node.id in globals_:
        return node.id
    return None


def _linearize(fn: ast.AsyncFunctionDef, globals_: set[str]) -> list[_Event]:
    """Reads, writes, and awaits of one body in source order.

    Position order approximates execution order, with two adjustments
    that mirror evaluation order:

    * an ``Await`` node *starts* at the ``await`` keyword but its operand
      (coroutine call and arguments) evaluates before the suspension, so
      the await event is keyed at the expression's **end** position;
    * an assignment's store happens *after* its right-hand side (and any
      await inside it), so writes are keyed at the **statement's end**
      position — ``self.x = self.x + 1`` reads before it writes, and in
      ``self.x = await f(self.x)`` the write lands after the suspension.

    Ties (``target = await ...`` ends both at the same offset) break as
    read < await < write, again matching evaluation order.
    """
    events: list[_Event] = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            continue  # nested defs run on their own schedule
        if isinstance(node, ast.Await):
            line = node.end_lineno if node.end_lineno is not None else node.lineno
            col = (
                node.end_col_offset
                if node.end_col_offset is not None
                else node.col_offset
            )
            events.append(_Event("await", "", line, col))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            line = node.end_lineno if node.end_lineno is not None else node.lineno
            col = (
                node.end_col_offset
                if node.end_col_offset is not None
                else node.col_offset
            )
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for elt in elts:
                    name = _shared_name(elt, globals_)
                    if name is not None:
                        events.append(_Event("write", name, line, col))
        elif isinstance(node, (ast.Attribute, ast.Name)):
            if not isinstance(node.ctx, ast.Load):
                continue  # stores are handled at their statement above
            name = _shared_name(node, globals_)
            if name is not None:
                events.append(_Event("read", name, node.lineno, node.col_offset))
    kind_rank = {"read": 0, "await": 1, "write": 2}
    events.sort(key=lambda e: (e.line, e.col, kind_rank[e.kind]))
    return events


@register
class AwaitRaceRule(SemanticRule):
    code = "RL010"
    name = "await-shared-state"
    description = (
        "in repro.service, shared state (self attributes, module globals) "
        "must not be written back across an await without re-validation; "
        "ContextVar.set in async code needs a matching reset"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if not _in_scope(mod):
                continue
            globals_ = set(mod.module_assigns)
            for fn in self._async_functions(mod):
                yield from self._check_straddle(fn, globals_)
                yield from self._check_contextvars(fn)
                yield from self._check_global_decl(fn)

    @staticmethod
    def _async_functions(mod: ModuleInfo) -> Iterator[FunctionInfo]:
        for fn in mod.functions.values():
            if fn.is_async:
                yield fn
        for cls in mod.classes.values():
            for fn in cls.methods.values():
                if fn.is_async:
                    yield fn

    # ------------------------------------------------------------------
    def _check_straddle(
        self, fn: FunctionInfo, globals_: set[str]
    ) -> Iterator[Finding]:
        node = fn.node
        assert isinstance(node, ast.AsyncFunctionDef)
        events = _linearize(node, globals_)
        #: name -> position of the last read *before* the latest await
        #: that has not been re-read since.
        stale_reads: dict[str, _Event] = {}
        #: names read since the latest await (fresh — safe to write).
        fresh: set[str] = set()
        pending: dict[str, _Event] = {}
        for event in events:
            if event.kind == "read":
                pending[event.name] = event
                fresh.add(event.name)
                stale_reads.pop(event.name, None)
            elif event.kind == "await":
                stale_reads.update(pending)
                pending.clear()
                fresh.clear()
            elif event.kind == "write":
                stale = stale_reads.get(event.name)
                if stale is not None and event.name not in fresh:
                    # The message deliberately omits the stale read's line
                    # number: baselines match on (path, code, message) and
                    # must survive unrelated line shifts.
                    yield self.finding(
                        fn.path,
                        event.line,
                        event.col,
                        f"'{event.name}' is written after an await in "
                        f"'{fn.name}' but was last read before it; other "
                        "coroutines ran in between — re-read the state after "
                        "the await or restructure so the read-modify-write "
                        "is atomic",
                    )
                # Writing establishes a fresh value either way.
                stale_reads.pop(event.name, None)
                pending.pop(event.name, None)
                fresh.add(event.name)

    # ------------------------------------------------------------------
    def _check_contextvars(self, fn: FunctionInfo) -> Iterator[Finding]:
        sets: list[tuple[str, int, int]] = []
        resets: set[str] = set()
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            ):
                continue
            target = node.func.value
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                name = f"self.{target.attr}"
            if name is None:
                continue
            if node.func.attr == "set" and self._looks_like_contextvar(name):
                sets.append((name, node.lineno, node.col_offset))
            elif node.func.attr == "reset":
                resets.add(name)
        for name, line, col in sets:
            if name not in resets:
                yield self.finding(
                    fn.path,
                    line,
                    col,
                    f"ContextVar '{name}' is set in an async function without "
                    "a matching reset(token); the value leaks into sibling "
                    "tasks sharing the context — use the token discipline "
                    "(token = var.set(...); try: ... finally: var.reset(token))",
                )

    @staticmethod
    def _looks_like_contextvar(name: str) -> bool:
        # Project convention: ContextVars are module-level ``_active*`` /
        # ``*_var`` names.  Queues/dicts also expose no ``.set`` with the
        # token contract, so a name-based gate keeps this precise.
        bare = name.rpartition(".")[2].lstrip("_")
        return bare.startswith("active") or bare.endswith(("var", "ctx", "context"))

    # ------------------------------------------------------------------
    def _check_global_decl(self, fn: FunctionInfo) -> Iterator[Finding]:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                yield self.finding(
                    fn.path,
                    node.lineno,
                    node.col_offset,
                    f"async function '{fn.name}' declares "
                    f"global {', '.join(node.names)}; module globals are "
                    "shared across every task — pass state explicitly or "
                    "hold it on the owning object",
                )
