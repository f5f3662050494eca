"""RL009: allocation decisions may only read cache-key-covered model state.

The allocation cache (:meth:`repro.sim.allocation.Allocator.allocate_cached`)
and the batch group resolver (:func:`repro.batch.layout.compile_run`)
memoize allocation decisions on ``(model.cache_key(), P)``.  That is
sound **iff** every piece of model state the decision code reads is
derivable from the key: an attribute read by ``time``/``area``/
``max_useful_processors`` (or anything the allocator reaches through
them) that the key does not cover lets two models share a cache entry
while inducing different allocations — a silent wrong-schedule bug, not
a crash.

This rule proves the contract whole-program:

1. **Entry points** — ``allocate``/``allocate_task`` of every class in
   the ``Allocator`` hierarchy, minus allocators declaring
   ``uses_free = True``: those bypass the cache *by construction*
   (:attr:`~repro.sim.allocation.Allocator.uses_free` is the structured
   escape hatch) and owe the key nothing.
2. **Demand** — the call graph is closed over the entries; inside every
   reachable function, method calls and attribute reads on model-typed
   values (parameters annotated with a ``SpeedupModel`` subclass —
   ``LpaAllocator._initial_eq1`` reading ``model.w`` off its
   ``GeneralModel`` parameter counts — or elements of annotated
   sequences) become *demanded* methods/attributes.
3. **Coverage** — for each concrete cacheable model (resolved
   ``cache_key`` is not the base ``return None``), the demanded methods
   resolve through the model's MRO and their transitive ``self.<attr>``
   read closure is computed.  Every read must be covered by the key
   (an attribute the resolved ``cache_key`` body reads) or be a
   class-body constant never rebound through ``self`` (class structure,
   not per-instance state — ``monotonic_hint = True`` on the Equation
   (1) family).

Findings anchor at the offending ``self.<attr>`` read, so a reviewed
exception is suppressed exactly where the drift would originate.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import SemanticRule, register
from repro.lint.semantic.callgraph import CallGraph, param_class_bindings
from repro.lint.semantic.dataflow import (
    cache_key_covered_attrs,
    class_constant_attrs,
    self_attr_reads,
)
from repro.lint.semantic.project import ClassInfo, FunctionInfo, Project

#: Bare names of the contract's root classes (bare names so fixture
#: projects with local stand-ins exercise the rule).
_ALLOCATOR_ROOT = "Allocator"
_MODEL_ROOT = "SpeedupModel"

#: Allocator entry methods whose reachable code constitutes "decision
#: code" for the cache contract.
_ENTRY_METHODS = ("allocate", "allocate_task")

#: Model methods that are definitionally key-consistent: ``cache_key``
#: is the key, and dunders are identity/representation, not decisions.
_EXEMPT_METHODS = {"cache_key"}


def _truthy_class_attr(project: Project, cls: ClassInfo, attr: str) -> bool:
    """Whether ``cls`` (via MRO) sets class attribute ``attr`` truthy."""
    for c in project.mro(cls):
        for stmt in c.node.body:
            targets: list[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == attr:
                    return bool(
                        isinstance(value, ast.Constant) and value.value is True
                    )
    return False


@register
class CacheKeySoundnessRule(SemanticRule):
    code = "RL009"
    name = "cache-key-soundness"
    description = (
        "model attributes read by allocator decision code (reachable from "
        "allocate/allocate_task) must be derivable from the model's "
        "cache_key(); uses_free allocators are structurally exempt"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        model_roots = project.classes_named(_MODEL_ROOT)
        allocator_roots = project.classes_named(_ALLOCATOR_ROOT)
        if not model_roots:
            return
        model_root_names = {c.qualname for c in model_roots}

        entries = self._entry_functions(project, allocator_roots)
        graph = CallGraph(project)
        reached = graph.reachable(entries)
        demanded_methods, demanded_attrs = self._collect_demands(
            project, reached, model_root_names
        )
        demanded_methods -= _EXEMPT_METHODS

        for root in model_roots:
            for cls in project.subclasses(root):
                yield from self._check_model(
                    project, cls, demanded_methods, demanded_attrs
                )

    # ------------------------------------------------------------------
    def _entry_functions(
        self, project: Project, allocator_roots: list[ClassInfo]
    ) -> list[FunctionInfo]:
        entries: dict[str, FunctionInfo] = {}
        for root in allocator_roots:
            hierarchy = [root, *project.subclasses(root)]
            for cls in hierarchy:
                if _truthy_class_attr(project, cls, "uses_free"):
                    # Structured escape hatch: the allocator declares it
                    # reads live state, allocate_cached always bypasses.
                    continue
                for method in _ENTRY_METHODS:
                    fn = project.resolve_method(cls, method)
                    if fn is not None:
                        entries.setdefault(fn.qualname, fn)
                cached = project.resolve_method(cls, "allocate_cached")
                if cached is not None:
                    entries.setdefault(cached.qualname, cached)
        return sorted(entries.values(), key=lambda f: f.qualname)

    def _collect_demands(
        self,
        project: Project,
        reached: list[FunctionInfo],
        model_root_names: set[str],
    ) -> tuple[set[str], set[str]]:
        """Methods called / attributes read on model-typed values."""

        def is_model_class(cls: ClassInfo) -> bool:
            return any(c.qualname in model_root_names for c in project.mro(cls))

        methods: set[str] = set()
        attrs: set[str] = set()
        for fn in reached:
            model_names = {
                name
                for name, cls in param_class_bindings(project, fn).items()
                if is_model_class(cls)
            }
            if fn.owner is not None:
                owner = project.classes.get(fn.owner)
                if owner is not None and is_model_class(owner):
                    # A model method's ``self`` is model-typed: demands
                    # propagate through intra-model helper calls.
                    model_names.add("self")
            if not model_names:
                continue
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    base = node.func.value
                    if isinstance(base, ast.Name) and base.id in model_names:
                        methods.add(node.func.attr)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in model_names
                ):
                    attrs.add(node.attr)
        # Method names double as Attribute loads in the walk above; the
        # per-class check resolves both, so no de-duplication is needed
        # beyond dropping exempt methods from the attr set too.
        attrs -= methods
        return methods, attrs

    def _check_model(
        self,
        project: Project,
        cls: ClassInfo,
        demanded_methods: set[str],
        demanded_attrs: set[str],
    ) -> Iterator[Finding]:
        covered = cache_key_covered_attrs(project, cls)
        if covered is None:
            return  # not cacheable: allocate_cached bypasses, no contract
        constants = class_constant_attrs(project, cls)
        has_attr = cls.instance_attrs | cls.class_attrs
        for base in project.mro(cls)[1:]:
            has_attr |= base.instance_attrs | base.class_attrs

        resolvable = [
            m for m in sorted(demanded_methods) if project.resolve_method(cls, m)
        ]
        reads = self_attr_reads(project, cls, resolvable)
        for attr in sorted(reads):
            if attr in covered or attr in constants:
                continue
            for read in reads[attr]:
                yield self.finding(
                    read.path,
                    read.line,
                    read.col,
                    f"'{cls.name}.{attr}' is read by allocation decision code "
                    f"(via {read.via.rpartition('.')[2]}) but is not derivable "
                    f"from {cls.name}.cache_key(); two models sharing a key "
                    "could induce different allocations — extend cache_key() "
                    "or make the attribute a class constant",
                )
        # Direct attribute reads on model-typed values in decision code
        # (e.g. _initial_eq1 reading model.w) demand coverage from every
        # cacheable model that actually has the attribute.
        for attr in sorted(demanded_attrs):
            if attr not in has_attr or attr in covered or attr in constants:
                continue
            anchor = cls.node
            yield self.finding(
                cls.path,
                anchor.lineno,
                anchor.col_offset,
                f"decision code reads '{attr}' directly from models of type "
                f"'{cls.name}' but {cls.name}.cache_key() does not cover it — "
                "extend cache_key() or make the attribute a class constant",
            )
