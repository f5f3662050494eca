"""The whole-program model: modules, classes, functions, and resolution.

Every file is parsed once into a :class:`ModuleInfo`; classes and
functions are indexed by *qualified name* (``module.Class`` /
``module.func`` / ``module.Class.method``).  Name resolution follows the
same philosophy as the per-file alias table
(:func:`repro.lint.context.collect_import_aliases`) extended across
files: a dotted name resolves through import aliases, then through
re-exports (``from repro.speedup.general import GeneralModel`` inside
``repro/speedup/__init__.py`` makes ``repro.speedup.GeneralModel``
resolve to the defining class).  Resolution is conservative — anything
the analyzer cannot positively identify resolves to ``None`` and rules
stay silent about it.

Files outside any package (fixtures, scripts) get a qualified-name
prefix derived from their path, so single-file fixture projects exercise
the semantic rules exactly like the real tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.context import FileContext

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "build_project",
]

#: Annotation containers whose element type is the interesting one
#: (``Sequence[SpeedupModel]`` parameters are element-typed).
_SEQUENCE_HEADS = {
    "Sequence",
    "Iterable",
    "Iterator",
    "list",
    "List",
    "tuple",
    "Tuple",
    "set",
    "Set",
    "frozenset",
    "FrozenSet",
}

_UNION_HEADS = {"Optional", "Union"}


@dataclass
class FunctionInfo:
    """One function or method definition."""

    #: Bare name, e.g. ``"allocate"``.
    name: str
    #: ``module.func`` or ``module.Class.method``.
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Dotted module name (or the path-derived stand-in for fixtures).
    module: str
    #: Path of the defining file, verbatim as given to the engine.
    path: str
    #: Qualified name of the owning class, or ``None`` for module functions.
    owner: str | None = None


@dataclass
class ClassInfo:
    """One class definition with its raw (unresolved) base expressions."""

    name: str
    qualname: str
    node: ast.ClassDef
    module: str
    path: str
    #: Methods defined *directly* in this class body.
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Names assigned in the class body (class-level attributes).
    class_attrs: set[str] = field(default_factory=set)
    #: Names assigned via ``self.X = ...`` in this class's own methods.
    instance_attrs: set[str] = field(default_factory=set)
    #: Base-class expressions, to be resolved against the module's aliases.
    base_exprs: list[ast.expr] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed file and its top-level symbols."""

    #: Dotted module name, or a path-derived stand-in outside packages.
    name: str
    path: str
    #: Local name -> fully-qualified import target (plus assignment aliases).
    aliases: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


class Project:
    """The resolved project: symbol tables plus MRO and subclass indexes."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        self.modules_by_name: dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        for mod in modules:
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
                for meth in cls.methods.values():
                    self.functions[meth.qualname] = meth
            for fn in mod.functions.values():
                self.functions[fn.qualname] = fn
        self._bases: dict[str, list[ClassInfo]] = {}
        self._subclasses: dict[str, list[ClassInfo]] = {}
        self._link_hierarchy()

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve_symbol(self, dotted: str, *, _depth: int = 0) -> object | None:
        """Resolve a fully-qualified dotted name to a class or function.

        Follows re-exports: when ``pkg.Name`` is not a definition but
        ``pkg``'s alias table maps ``Name`` elsewhere, resolution recurses
        on the target (bounded, so import cycles cannot loop).
        """
        if _depth > 10:
            return None
        if dotted in self.classes:
            return self.classes[dotted]
        if dotted in self.functions:
            return self.functions[dotted]
        owner, _, attr = dotted.rpartition(".")
        if not owner:
            return None
        mod = self.modules_by_name.get(owner)
        if mod is not None and attr in mod.aliases:
            return self.resolve_symbol(mod.aliases[attr], _depth=_depth + 1)
        return None

    def resolve_in_module(self, mod: ModuleInfo, name: str) -> object | None:
        """Resolve a *local* dotted name as seen from inside ``mod``."""
        head = name.split(".", 1)[0]
        if "." not in name:
            if name in mod.classes:
                return mod.classes[name]
            if name in mod.functions:
                return mod.functions[name]
        if head in mod.aliases:
            target = mod.aliases[head] + name[len(head) :]
            return self.resolve_symbol(target)
        return self.resolve_symbol(name)

    def resolve_expr(self, mod: ModuleInfo, node: ast.expr) -> object | None:
        """Resolve a ``Name``/``Attribute`` chain expression from ``mod``."""
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        return self.resolve_in_module(mod, dotted)

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------
    def _link_hierarchy(self) -> None:
        for cls in self.classes.values():
            mod = self.modules_by_name[cls.module]
            bases = []
            for expr in cls.base_exprs:
                resolved = self.resolve_expr(mod, expr)
                if isinstance(resolved, ClassInfo):
                    bases.append(resolved)
            self._bases[cls.qualname] = bases
            for base in bases:
                self._subclasses.setdefault(base.qualname, []).append(cls)

    def bases(self, cls: ClassInfo) -> list[ClassInfo]:
        """Direct project-resolved base classes of ``cls``."""
        return self._bases.get(cls.qualname, [])

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """Linearized method-resolution order (DFS, first occurrence wins)."""
        order: list[ClassInfo] = []
        seen: set[str] = set()

        def visit(c: ClassInfo) -> None:
            if c.qualname in seen:
                return
            seen.add(c.qualname)
            order.append(c)
            for base in self.bases(c):
                visit(base)

        visit(cls)
        return order

    def subclasses(self, cls: ClassInfo) -> list[ClassInfo]:
        """All transitive subclasses of ``cls`` (excluding itself)."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = list(self._subclasses.get(cls.qualname, []))
        while stack:
            sub = stack.pop()
            if sub.qualname in seen:
                continue
            seen.add(sub.qualname)
            out.append(sub)
            stack.extend(self._subclasses.get(sub.qualname, []))
        return sorted(out, key=lambda c: c.qualname)

    def classes_named(self, name: str) -> list[ClassInfo]:
        """Every class whose bare name is ``name`` (root-class heuristic).

        Semantic rules identify contract roots (``Allocator``,
        ``SpeedupModel``, ``KernelIO``) by bare class name so fixture
        projects — which define stand-in roots locally — exercise the
        same code path as the real tree.
        """
        return sorted(
            (c for c in self.classes.values() if c.name == name),
            key=lambda c: c.qualname,
        )

    def resolve_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Resolve ``cls.name`` through the MRO."""
        for c in self.mro(cls):
            if name in c.methods:
                return c.methods[name]
        return None

    # ------------------------------------------------------------------
    # Annotations
    # ------------------------------------------------------------------
    def annotation_class(
        self, mod: ModuleInfo, ann: ast.expr | None
    ) -> tuple[ClassInfo | None, bool]:
        """Resolve an annotation to a project class.

        Returns ``(class, elementwise)`` where ``elementwise`` is True
        when the annotation is a sequence of that class (so iteration
        targets, not the name itself, carry the type).  Handles string
        annotations, ``Optional``/``Union``, and one container level.
        """
        if ann is None:
            return None, False
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None, False
        if isinstance(ann, ast.Subscript):
            head = _dotted_name(ann.value)
            head_last = head.rpartition(".")[2] if head else None
            inner = ann.slice
            if head_last in _UNION_HEADS:
                for arg in inner.elts if isinstance(inner, ast.Tuple) else [inner]:
                    cls, elem = self.annotation_class(mod, arg)
                    if cls is not None:
                        return cls, elem
                return None, False
            if head_last in _SEQUENCE_HEADS:
                first = inner.elts[0] if isinstance(inner, ast.Tuple) else inner
                cls, _ = self.annotation_class(mod, first)
                return (cls, True) if cls is not None else (None, False)
            return None, False
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            for side in (ann.left, ann.right):
                cls, elem = self.annotation_class(mod, side)
                if cls is not None:
                    return cls, elem
            return None, False
        resolved = self.resolve_expr(mod, ann)
        if isinstance(resolved, ClassInfo):
            return resolved, False
        return None, False


def _dotted_name(node: ast.expr) -> str | None:
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _collect_module(ctx: FileContext) -> ModuleInfo:
    name = ctx.module if ctx.module is not None else f"<{ctx.path}>"
    mod = ModuleInfo(
        name=name,
        path=ctx.path,
        aliases=dict(ctx.aliases),
    )
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                name=node.name,
                qualname=f"{name}.{node.name}",
                node=node,
                module=name,
                path=ctx.path,
            )
            mod.functions[node.name] = info
        elif isinstance(node, ast.ClassDef):
            mod.classes[node.name] = _collect_class(node, name, ctx.path)
    return mod


def _collect_class(node: ast.ClassDef, module: str, path: str) -> ClassInfo:
    cls = ClassInfo(
        name=node.name,
        qualname=f"{module}.{node.name}",
        node=node,
        module=module,
        path=path,
        base_exprs=list(node.bases),
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[stmt.name] = FunctionInfo(
                name=stmt.name,
                qualname=f"{cls.qualname}.{stmt.name}",
                node=stmt,
                module=module,
                path=path,
                owner=cls.qualname,
            )
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    and (
                        targets := sub.targets
                        if isinstance(sub, ast.Assign)
                        else [sub.target]
                    )
                ):
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            cls.instance_attrs.add(target.attr)
                        elif isinstance(target, (ast.Tuple, ast.List)):
                            for elt in target.elts:
                                if (
                                    isinstance(elt, ast.Attribute)
                                    and isinstance(elt.value, ast.Name)
                                    and elt.value.id == "self"
                                ):
                                    cls.instance_attrs.add(elt.attr)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                cls.class_attrs.update(_name_targets(target))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            cls.class_attrs.add(stmt.target.id)
    return cls


def _name_targets(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in _name_targets(elt)]
    return []


def build_project(contexts: list[FileContext]) -> Project:
    """Build the project model from already-parsed file contexts."""
    return Project([_collect_module(ctx) for ctx in contexts])
