"""Lint-style audit: service, runtime and lint raise only the repo hierarchy.

Walks the AST of every module under ``repro/service``, ``repro/runtime``
and ``repro/lint`` and asserts each ``raise`` uses a
:class:`~repro.exceptions.ReproError` subclass.  One escape hatch is allowed: raising a builtin *inside* a ``try``
whose handlers catch it is internal control flow (e.g. the journal reader
raising ``ValueError`` into its own torn-tail handler) and never crosses a
public API boundary.
"""

import ast
import builtins
from pathlib import Path

import pytest

import repro.exceptions
from repro.exceptions import ReproError

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Packages whose public raises must use the hierarchy.
AUDITED_PACKAGES = ("service", "runtime", "lint")

#: Every exception class exported by :mod:`repro.exceptions` that derives
#: from the repo root error.
HIERARCHY = frozenset(
    name
    for name in dir(repro.exceptions)
    if isinstance(getattr(repro.exceptions, name), type)
    and issubclass(getattr(repro.exceptions, name), ReproError)
)


def audited_modules() -> list[Path]:
    paths = [
        path
        for package in AUDITED_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
    ]
    assert len(paths) >= 10, "audit scope unexpectedly small — wrong layout?"
    return paths


def raised_name(node: ast.Raise) -> str | None:
    """Class name a ``raise`` constructs, or ``None`` if not checkable.

    ``raise`` / ``raise exc`` (re-raising an already-constructed object)
    and attribute raises are skipped: the object was vetted where it was
    built, which this audit also covers.
    """
    if not isinstance(node.exc, ast.Call):
        return None
    func = node.exc.func
    return func.id if isinstance(func, ast.Name) else None


def handler_catches(handler: ast.ExceptHandler, name: str) -> bool:
    """Whether ``except <type>:`` catches an exception class called ``name``."""
    if handler.type is None:
        return True  # bare except
    caught = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    raised_cls = getattr(builtins, name, None)
    for node in caught:
        caught_name = (
            node.id
            if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None
        )
        if caught_name == name:
            return True
        # Subclass-aware for builtins: ``raise ValueError`` inside
        # ``except Exception`` is still internal control flow.
        caught_cls = getattr(builtins, caught_name or "", None)
        if (
            isinstance(raised_cls, type)
            and isinstance(caught_cls, type)
            and issubclass(raised_cls, caught_cls)
        ):
            return True
    return False


def collect_violations(path: Path) -> list[str]:
    """Raises in ``path`` that neither use the hierarchy nor are caught."""
    tree = ast.parse(path.read_text(), filename=str(path))
    violations: list[str] = []

    def visit(node: ast.AST, caught: tuple[ast.ExceptHandler, ...]) -> None:
        if isinstance(node, ast.Raise):
            name = raised_name(node)
            if (
                name is not None
                and name not in HIERARCHY
                and not any(handler_catches(h, name) for h in caught)
            ):
                violations.append(f"{path}:{node.lineno}: raise {name}")
        if isinstance(node, ast.Try):
            handlers = tuple(node.handlers)
            for child in node.body:
                visit(child, caught + handlers)
            for child in [*node.handlers, *node.orelse, *node.finalbody]:
                visit(child, caught)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, caught)

    visit(tree, ())
    return violations


class TestExceptionHygiene:
    def test_hierarchy_is_discovered(self) -> None:
        assert {"ReproError", "ServiceError", "ProtocolError", "QuotaExceeded"} <= set(
            HIERARCHY
        )

    @pytest.mark.parametrize(
        "module", audited_modules(), ids=lambda p: str(p.relative_to(SRC))
    )
    def test_module_raises_only_the_hierarchy(self, module: Path) -> None:
        assert collect_violations(module) == []

    def test_audit_detects_a_stray_builtin_raise(self, tmp_path: Path) -> None:
        # The audit itself must not be vacuous: a module raising a bare
        # builtin at a public boundary is flagged ...
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    raise RuntimeError('boom')\n")
        assert collect_violations(bad) == [f"{bad}:2: raise RuntimeError"]
        # ... while the internal-control-flow escape hatch is not.
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def f():\n"
            "    try:\n"
            "        raise ValueError('torn tail')\n"
            "    except (ValueError, UnicodeDecodeError):\n"
            "        pass\n"
        )
        assert collect_violations(ok) == []
