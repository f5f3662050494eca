"""RL010 await-point races: fixtures, event ordering, and the real service."""

from repro.lint import lint_source
from repro.lint.registry import get_rule
from tests.lint.conftest import lint_semantic_fixture, tree_findings


def run(source: str):
    return lint_source(source, rules=[get_rule("RL010")]).findings


class TestFixtures:
    def test_three_violation_shapes_fire(self):
        report = lint_semantic_fixture("rl010_bad.txt", "RL010")
        assert {f.code for f in report.findings} == {"RL010"}
        messages = [f.message for f in report.findings]
        assert sum("written after an await" in m for m in messages) == 1
        assert sum("ContextVar" in m for m in messages) == 1
        assert sum("declares global REGISTRY_LIMIT" in m for m in messages) == 1

    def test_disciplined_fixture_is_clean(self):
        report = lint_semantic_fixture("rl010_good.txt", "RL010")
        assert report.findings == []


class TestEventOrdering:
    """The linearization must mirror evaluation order, not token order."""

    def test_reread_after_await_is_clean(self):
        # ``self.x = self.x + 1``: the RHS read happens *before* the
        # store even though the store target appears first in the source.
        src = (
            "class C:\n"
            "    async def bump(self):\n"
            "        if self.x > 0:\n"
            "            await self.wait()\n"
            "        self.x = self.x + 1\n"
        )
        assert run(src) == []

    def test_write_back_through_await_operand_fires(self):
        # ``self.x = await f(self.x)``: the operand read precedes the
        # suspension, the store lands after it — the classic lost update.
        src = (
            "class C:\n"
            "    async def bump(self):\n"
            "        self.x = await self.fetch(self.x)\n"
        )
        findings = run(src)
        assert len(findings) == 1
        assert "'self.x'" in findings[0].message

    def test_write_before_await_is_clean(self):
        src = (
            "class C:\n"
            "    async def close(self):\n"
            "        if self.open:\n"
            "            self.open = False\n"
            "        await self.flush()\n"
        )
        assert run(src) == []

    def test_sync_functions_are_ignored(self):
        src = (
            "class C:\n"
            "    def bump(self):\n"
            "        snap = self.x\n"
            "        self.x = snap + 1\n"
        )
        assert run(src) == []


class TestRealTree:
    def test_service_has_exactly_the_baselined_findings(self):
        # SchedulerServer.start rebinds host/port to the resolved socket
        # address after ``await start_server`` — the two reviewed,
        # baselined findings.  Anything beyond them is a regression.
        findings = tree_findings("RL010", ["src/repro/service"])
        assert len(findings) == 2
        assert all(f.path.endswith("server.py") for f in findings)
        assert {m for f in findings for m in ("'self.host'", "'self.port'") if m in f.message} == {
            "'self.host'",
            "'self.port'",
        }
