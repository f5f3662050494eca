"""Project model: symbol tables, alias resolution, hierarchy, annotations."""

from repro.lint.context import FileContext
from repro.lint.semantic.project import ClassInfo, FunctionInfo, build_project


def make_project(*files: tuple[str, str]):
    """Build a project from ``(module, source)`` pairs."""
    contexts = [
        FileContext.from_source(
            source, path=module.replace(".", "/") + ".py", module=module
        )
        for module, source in files
    ]
    return build_project(contexts)


class TestSymbolTables:
    def test_classes_and_functions_indexed_by_qualname(self):
        project = make_project(
            ("pkg.mod", "class A:\n    def m(self):\n        pass\n\n\ndef f():\n    pass\n")
        )
        assert isinstance(project.classes["pkg.mod.A"], ClassInfo)
        assert isinstance(project.functions["pkg.mod.f"], FunctionInfo)
        assert isinstance(project.functions["pkg.mod.A.m"], FunctionInfo)
        assert project.functions["pkg.mod.A.m"].owner == "pkg.mod.A"

    def test_instance_and_class_attrs_collected(self):
        project = make_project(
            (
                "m",
                "class A:\n"
                "    flag = True\n"
                "    def __init__(self):\n"
                "        self.x = 1\n",
            )
        )
        cls = project.classes["m.A"]
        assert cls.class_attrs == {"flag"}
        assert cls.instance_attrs == {"x"}

    def test_module_less_files_get_path_stand_in(self):
        ctx = FileContext.from_source("X = 1\n", path="scratch.py", module=None)
        project = build_project([ctx])
        assert project.modules[0].name == "<scratch.py>"


class TestNameResolution:
    def test_import_alias_base_resolution(self):
        project = make_project(
            ("pkg.models", "class Base:\n    pass\n"),
            ("pkg.impl", "from pkg.models import Base as B\n\n\nclass Sub(B):\n    pass\n"),
        )
        sub = project.classes["pkg.impl.Sub"]
        assert [c.qualname for c in project.bases(sub)] == ["pkg.models.Base"]

    def test_reexport_following(self):
        # ``pkg/__init__.py`` carries the module name ``pkg``.
        project = make_project(
            ("pkg", "from pkg.impl import Widget\n"),
            ("pkg.impl", "class Widget:\n    pass\n"),
            ("app", "from pkg import Widget\n\n\nclass Mine(Widget):\n    pass\n"),
        )
        mine = project.classes["app.Mine"]
        bases = project.bases(mine)
        assert [c.qualname for c in bases] == ["pkg.impl.Widget"]

    def test_assignment_alias_collected(self):
        # Satellite regression: ``now = time.time`` is an alias, not a
        # fresh opaque name.
        project = make_project(("m", "import time\n\nnow = time.time\n"))
        assert project.modules[0].aliases["now"] == "time.time"

    def test_transitive_assignment_alias(self):
        project = make_project(
            ("m", "import time\n\nclock = time.time\ntick = clock\n")
        )
        assert project.modules[0].aliases["tick"] == "time.time"


class TestHierarchy:
    DIAMOND = (
        "class Root:\n    def m(self):\n        pass\n\n\n"
        "class Left(Root):\n    def m(self):\n        pass\n\n\n"
        "class Right(Root):\n    pass\n\n\n"
        "class Leaf(Left, Right):\n    pass\n"
    )

    def test_mro_first_occurrence_wins(self):
        project = make_project(("m", self.DIAMOND))
        leaf = project.classes["m.Leaf"]
        assert [c.name for c in project.mro(leaf)] == ["Leaf", "Left", "Root", "Right"]

    def test_subclasses_are_transitive(self):
        project = make_project(("m", self.DIAMOND))
        root = project.classes["m.Root"]
        assert {c.name for c in project.subclasses(root)} == {"Left", "Right", "Leaf"}

    def test_resolve_method_walks_mro(self):
        project = make_project(("m", self.DIAMOND))
        leaf = project.classes["m.Leaf"]
        resolved = project.resolve_method(leaf, "m")
        assert resolved is not None and resolved.qualname == "m.Left.m"

    def test_classes_named_spans_modules(self):
        project = make_project(
            ("a", "class Allocator:\n    pass\n"),
            ("b", "class Allocator:\n    pass\n"),
        )
        assert [c.qualname for c in project.classes_named("Allocator")] == [
            "a.Allocator",
            "b.Allocator",
        ]


class TestAnnotations:
    SRC = (
        "from typing import Optional, Sequence\n\n\n"
        "class Model:\n    pass\n\n\n"
        "def f(a: Model, b: 'Model', c: Optional[Model], d: Model | None,\n"
        "      e: Sequence[Model], g: list[Model], h: int):\n"
        "    pass\n"
    )

    def _anns(self):
        project = make_project(("m", self.SRC))
        mod = project.modules_by_name["m"]
        fn = mod.functions["f"].node
        return project, mod, {a.arg: a.annotation for a in fn.args.args}

    def test_direct_and_string_annotations(self):
        project, mod, anns = self._anns()
        cls = project.classes["m.Model"]
        assert project.annotation_class(mod, anns["a"]) == (cls, False)
        assert project.annotation_class(mod, anns["b"]) == (cls, False)

    def test_optional_and_pep604_union(self):
        project, mod, anns = self._anns()
        cls = project.classes["m.Model"]
        assert project.annotation_class(mod, anns["c"]) == (cls, False)
        assert project.annotation_class(mod, anns["d"]) == (cls, False)

    def test_sequence_annotations_are_elementwise(self):
        project, mod, anns = self._anns()
        cls = project.classes["m.Model"]
        assert project.annotation_class(mod, anns["e"]) == (cls, True)
        assert project.annotation_class(mod, anns["g"]) == (cls, True)

    def test_non_project_annotation_resolves_to_none(self):
        project, mod, anns = self._anns()
        assert project.annotation_class(mod, anns["h"]) == (None, False)
