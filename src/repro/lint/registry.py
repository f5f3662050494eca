"""Rule base classes and the one global rule registry.

There are two kinds of rule: a per-file :class:`Rule` sees one parsed
file at a time, a :class:`SemanticRule` sees the whole
:class:`~repro.lint.semantic.project.Project`.  Both self-register at
import time via the :func:`register` decorator into one registry, so a
code is unique across both kinds; :func:`all_rules` triggers the import
of :mod:`repro.lint.rules` so the registry is always populated before
use.  Codes are stable — they are the public interface of the linter
(suppression comments, CI logs, and the documentation in
``docs/static-analysis.md`` all refer to them).
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator
from typing import ClassVar, TypeVar, Union

from repro.exceptions import InvalidParameterError
from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.semantic.project import Project

__all__ = [
    "AnyRule",
    "Rule",
    "SemanticRule",
    "register",
    "all_rules",
    "get_rule",
    "resolve_codes",
]


class Rule(abc.ABC):
    """One per-file static-analysis rule with a stable code.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding a :class:`Finding` per violation.  Suppression filtering is
    handled by the engine, not the rule.
    """

    #: Stable identifier, e.g. ``"RL003"``.
    code: ClassVar[str]
    #: Short kebab-case name, e.g. ``"float-equality"``.
    name: ClassVar[str]
    #: One-line description of the invariant the rule protects.
    description: ClassVar[str]

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether the rule runs on this file at all (default: every file)."""
        return True

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield one finding per violation in ``ctx``."""

    def finding(self, ctx: FileContext, line: int, col: int, message: str) -> Finding:
        """Build a finding for this rule at the given location."""
        return Finding(path=ctx.path, line=line, col=col, code=self.code, message=message)


class SemanticRule(abc.ABC):
    """One whole-program rule with a stable code.

    Subclasses set the same class attributes as :class:`Rule` and
    implement :meth:`check`, yielding one :class:`Finding` per violation
    with the most precise anchor available (the read site, the racy
    write).  Findings anchor at a concrete source location, so the
    engine filters them through the anchor file's suppression pragmas.
    """

    code: ClassVar[str]
    name: ClassVar[str]
    description: ClassVar[str]

    @abc.abstractmethod
    def check(self, project: Project) -> Iterator[Finding]:
        """Yield one finding per violation in ``project``."""

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        """Build a finding for this rule at the given location."""
        return Finding(path=path, line=line, col=col, code=self.code, message=message)


AnyRule = Union[Rule, SemanticRule]

_REGISTRY: dict[str, AnyRule] = {}

R = TypeVar("R", type[Rule], type[SemanticRule])


def register(cls: R) -> R:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    code = rule.code
    if code in _REGISTRY:
        raise InvalidParameterError(f"duplicate lint rule code {code!r}")
    _REGISTRY[code] = rule
    return cls


def _ensure_loaded() -> None:
    # Importing the rules package runs every @register decorator.
    import repro.lint.rules  # noqa: F401  (import for side effect)


def all_rules() -> list[AnyRule]:
    """Return every registered rule of both kinds, sorted by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> AnyRule:
    """Return the rule registered under ``code`` (raises ``KeyError``)."""
    _ensure_loaded()
    return _REGISTRY[code]


def _normalise(codes: Iterable[str] | None) -> set[str]:
    return {c.strip().upper() for c in codes or () if c.strip()}


def resolve_codes(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    *,
    semantic: bool = False,
) -> list[AnyRule]:
    """Return the active rules after ``--select`` / ``--ignore`` filtering.

    Without ``select`` every per-file rule is active, and every semantic
    rule too when ``semantic`` is set; with ``select`` exactly the named
    rules are, of either kind.  Unknown codes raise
    :class:`~repro.exceptions.InvalidParameterError` (a ``ValueError``) — a
    misspelled code silently matching nothing would disable a contract
    check without anyone noticing.
    """
    _ensure_loaded()
    wanted, dropped = _normalise(select), _normalise(ignore)
    unknown = (wanted | dropped) - set(_REGISTRY)
    if unknown:
        raise InvalidParameterError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    if select is not None:
        chosen = wanted
    else:
        chosen = {
            code
            for code, rule in _REGISTRY.items()
            if semantic or isinstance(rule, Rule)
        }
    return [_REGISTRY[code] for code in sorted(chosen - dropped)]
