"""RL012 emit-guard details: scoping, binding resolution, guard shapes."""

from repro.lint import lint_source


def codes(source: str, module: str | None = None) -> list[str]:
    """RL012 findings only (snippets here skip annotations, quotas, ...)."""
    findings = lint_source(source, module=module).findings
    return [f.code for f in findings if f.code == "RL012"]


UNGUARDED = (
    "class Pool:\n"
    "    def go(self) -> None:\n"
    "        self.emit(1)\n"
)


class TestScoping:
    def test_fires_in_service_modules(self):
        assert codes(UNGUARDED, module="repro.service.pool") == ["RL012"]

    def test_fires_in_batch_modules(self):
        assert codes(UNGUARDED, module="repro.batch.engine") == ["RL012"]

    def test_fires_in_sim_modules(self):
        assert codes(UNGUARDED, module="repro.sim.engine") == ["RL012"]

    def test_silent_in_obs_sinks(self):
        # The sink layer itself (repro.obs) calls emit unconditionally by
        # design — it only exists when tracing is on.
        assert codes(UNGUARDED, module="repro.obs.export") == []

    def test_silent_outside_repro(self):
        assert codes(UNGUARDED, module="benchmarks.bench_engine") == []


class TestBindingResolution:
    def test_required_emit_parameter_is_exempt(self):
        src = "def f(emit):\n    emit(1)\n"
        assert codes(src, module="repro.batch.engine") == []

    def test_optional_annotation_without_default_still_flags(self):
        src = (
            "from typing import Callable\n"
            "def f(emit: Callable[..., None] | None):\n"
            "    emit(1)\n"
        )
        assert codes(src, module="repro.sim.engine") == ["RL012"]

    def test_closure_sees_outer_optional_parameter(self):
        src = (
            "def outer(emit=None):\n"
            "    def inner() -> None:\n"
            "        emit(1)\n"
            "    return inner\n"
        )
        assert codes(src, module="repro.sim.engine") == ["RL012"]

    def test_unknown_binding_stays_quiet(self):
        src = "def f():\n    emit(1)\n"
        assert codes(src, module="repro.sim.engine") == []

    def test_kwonly_optional_default_flags(self):
        src = "def f(*, emit=None):\n    emit(1)\n"
        assert codes(src, module="repro.sim.engine") == ["RL012"]


class TestGuardShapes:
    def test_is_not_none_guard(self):
        src = (
            "def f(emit=None):\n"
            "    if emit is not None:\n"
            "        emit(1)\n"
        )
        assert codes(src, module="repro.sim.engine") == []

    def test_truthiness_guard(self):
        src = "def f(emit=None):\n    if emit:\n        emit(1)\n"
        assert codes(src, module="repro.sim.engine") == []

    def test_receiver_guard_covers_attribute_emit(self):
        src = (
            "def f(tracer=None):\n"
            "    if tracer is not None:\n"
            "        tracer.emit(1)\n"
        )
        assert codes(src, module="repro.service.server") == []

    def test_guard_does_not_leak_into_else(self):
        src = (
            "class P:\n"
            "    def f(self) -> None:\n"
            "        if self.emit is not None:\n"
            "            pass\n"
            "        else:\n"
            "            self.emit(1)\n"
        )
        assert codes(src, module="repro.service.pool") == ["RL012"]

    def test_guard_does_not_leak_across_functions(self):
        src = (
            "class P:\n"
            "    def f(self) -> None:\n"
            "        if self.emit is not None:\n"
            "            def g() -> None:\n"
            "                self.emit(1)\n"
        )
        # The nested function runs later, outside the guard's dynamic
        # extent; the lexical guard must not excuse it.
        assert codes(src, module="repro.service.pool") == ["RL012"]

    def test_ternary_condition_guards_its_value(self):
        src = "def f(emit=None):\n    x = emit(1) if emit else None\n"
        assert codes(src, module="repro.sim.engine") == []

    def test_unrelated_condition_is_no_guard(self):
        src = (
            "def f(flag, emit=None):\n"
            "    if flag:\n"
            "        emit(1)\n"
        )
        assert codes(src, module="repro.sim.engine") == ["RL012"]

    def test_suppression_comment_respected(self):
        src = (
            "class P:\n"
            "    def f(self) -> None:\n"
            "        self.emit(1)  # repro-lint: disable=RL012 -- boot-time only\n"
        )
        assert codes(src, module="repro.service.pool") == []
