"""The :class:`SemanticRule` protocol and its registry.

Semantic rules see the whole :class:`~repro.lint.semantic.project.Project`
at once instead of one file; everything else mirrors the per-file
:class:`~repro.lint.registry.Rule` machinery — stable codes in the same
``RLxxx`` namespace, self-registration at import time, deterministic
ordering.  Findings anchor at a concrete source location (RL009 anchors
at the offending attribute *read*), so the ordinary per-line
``# repro-lint: disable=CODE`` suppressions apply unchanged — the engine
filters semantic findings through the suppression table of the anchor
file.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator
from typing import ClassVar, TypeVar

from repro.lint.findings import Finding
from repro.lint.semantic.project import Project

__all__ = [
    "SemanticRule",
    "all_semantic_rules",
    "get_semantic_rule",
    "register_semantic",
    "resolve_semantic_codes",
    "semantic_codes",
]

_SEMANTIC_REGISTRY: dict[str, "SemanticRule"] = {}

S = TypeVar("S", bound="type[SemanticRule]")


class SemanticRule(abc.ABC):
    """One whole-program rule with a stable code.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding one :class:`Finding` per violation with the most precise
    anchor available (the read site, the racy write, the divergent
    tier).  Suppression filtering is the engine's job.
    """

    #: Stable identifier, e.g. ``"RL009"`` (shared namespace with
    #: per-file rules; codes must be unique across both registries).
    code: ClassVar[str]
    #: Short kebab-case name, e.g. ``"cache-key-soundness"``.
    name: ClassVar[str]
    #: One-line description of the invariant the rule proves.
    description: ClassVar[str]

    @abc.abstractmethod
    def check(self, project: Project) -> Iterator[Finding]:
        """Yield one finding per violation in ``project``."""

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        """Build a finding for this rule at the given location."""
        return Finding(path=path, line=line, col=col, code=self.code, message=message)


def register_semantic(cls: S) -> S:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    code = rule.code
    if code in _SEMANTIC_REGISTRY:
        raise ValueError(f"duplicate semantic rule code {code!r}")
    _SEMANTIC_REGISTRY[code] = rule
    return cls


def _ensure_loaded() -> None:
    # The rules package imports the rl009..rl010 modules, running their
    # @register_semantic decorators.
    import repro.lint.rules  # noqa: F401  (import for side effect)


def all_semantic_rules() -> list[SemanticRule]:
    """Return every registered semantic rule, sorted by code."""
    _ensure_loaded()
    return [_SEMANTIC_REGISTRY[code] for code in sorted(_SEMANTIC_REGISTRY)]


def get_semantic_rule(code: str) -> SemanticRule:
    """Return the semantic rule registered under ``code`` (``KeyError``)."""
    _ensure_loaded()
    return _SEMANTIC_REGISTRY[code]


def semantic_codes() -> frozenset[str]:
    """The set of registered semantic rule codes."""
    _ensure_loaded()
    return frozenset(_SEMANTIC_REGISTRY)


def resolve_semantic_codes(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[SemanticRule]:
    """Semantic-rule counterpart of :func:`repro.lint.registry.resolve_codes`.

    Unlike the per-file resolver this one tolerates codes it does not
    know — the CLI validates the union of both registries, then hands
    each resolver the full selection.
    """
    _ensure_loaded()
    chosen = set(_SEMANTIC_REGISTRY)
    if select is not None:
        wanted = {c.strip().upper() for c in select if c.strip()}
        chosen &= wanted
    if ignore is not None:
        chosen -= {c.strip().upper() for c in ignore if c.strip()}
    return [_SEMANTIC_REGISTRY[code] for code in sorted(chosen)]
