"""Whole-program semantic analysis on top of the per-file lint framework.

The per-file rules (RL001–RL008, RL012) see one AST at a time; some
contracts are *cross-module*: the allocation cache is only sound if
:meth:`~repro.speedup.SpeedupModel.cache_key` covers every model
attribute the allocator decision paths read.  This package provides the
machinery to check such properties:

:mod:`~repro.lint.semantic.project`
    The project model — every file parsed once, classes and functions
    indexed by qualified name, import aliases (including re-exports
    through package ``__init__`` modules) resolved project-wide, and an
    MRO-based method/subclass index.
:mod:`~repro.lint.semantic.callgraph`
    Call resolution (``self.method`` via the MRO with virtual dispatch
    over subclasses, module functions via the alias table, methods on
    annotated parameters) and reachability closures.
:mod:`~repro.lint.semantic.dataflow`
    Interprocedural ``self.<attr>`` read closures and cache-key
    coverage extraction — the substrate of RL009.
:mod:`~repro.lint.semantic.cache`
    The incremental analysis cache keyed on file content hashes, making
    warm re-runs sub-second.

The analyzer itself (RL009) lives with the other rules in
:mod:`repro.lint.rules`: it subclasses
:class:`~repro.lint.registry.SemanticRule` and registers into the one
rule registry of :mod:`repro.lint.registry`.  The engine runs it over
the same parsed files as the per-file rules when asked
(``python -m repro.lint --semantic``).
"""

from repro.lint.semantic.cache import AnalysisCache
from repro.lint.semantic.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    build_project,
)

__all__ = [
    "AnalysisCache",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "build_project",
]
