"""Per-rule positive/negative fixture tests (RL001-RL009, RL012)."""

import pytest

from repro.lint import lint_source
from tests.lint.conftest import (
    RULE_CODES,
    SEMANTIC_CODES,
    lint_fixture,
    lint_semantic_fixture,
)


class TestFixtures:
    @pytest.mark.parametrize("code", RULE_CODES)
    def test_positive_fixture_triggers_only_its_rule(self, code):
        report = lint_fixture(f"{code.lower()}_bad.txt")
        codes = {f.code for f in report.findings}
        assert code in codes, f"{code} did not fire on its positive fixture"
        assert codes == {code}, f"unexpected cross-findings: {codes - {code}}"

    @pytest.mark.parametrize("code", RULE_CODES)
    def test_negative_fixture_is_clean(self, code):
        report = lint_fixture(f"{code.lower()}_good.txt")
        offending = [f for f in report.findings if f.code == code]
        assert offending == [], f"{code} fired on its negative fixture: {offending}"

    @pytest.mark.parametrize("code", RULE_CODES)
    def test_negative_fixture_clean_overall(self, code):
        # Good fixtures are clean under *every* rule, not just their own.
        report = lint_fixture(f"{code.lower()}_good.txt")
        assert report.findings == []


class TestRl001Details:
    def test_counts_every_unseeded_site(self):
        report = lint_fixture("rl001_bad.txt")
        assert len(report.findings) == 5

    def test_seeded_default_rng_not_flagged(self):
        report = lint_source("import numpy as np\nrng = np.random.default_rng(3)\n")
        assert report.findings == []

    def test_from_import_of_global_function(self):
        report = lint_source("from random import randint\n")
        assert [f.code for f in report.findings] == ["RL001"]


class TestRl002Scoping:
    SOURCE = "import time\n\n\ndef now() -> float:\n    return time.time()\n"

    def test_fires_in_sim_modules(self):
        report = lint_source(self.SOURCE, module="repro.sim.engine")
        assert [f.code for f in report.findings] == ["RL002"]

    def test_fires_in_core_modules(self):
        report = lint_source(self.SOURCE, module="repro.core.allocator")
        assert [f.code for f in report.findings] == ["RL002"]

    def test_silent_outside_hot_packages(self):
        report = lint_source(self.SOURCE, module="repro.runtime.executor")
        assert report.findings == []

    def test_fires_on_module_less_snippets(self):
        report = lint_source(self.SOURCE, module=None)
        assert [f.code for f in report.findings] == ["RL002"]


class TestRl003Details:
    def test_counts_each_comparison(self):
        report = lint_fixture("rl003_bad.txt")
        assert len(report.findings) == 4

    def test_good_fixture_records_suppression(self):
        report = lint_fixture("rl003_good.txt")
        assert report.suppressed == 1

    def test_scoped_out_of_test_modules(self):
        src = "def check(makespan: float) -> bool:\n    return makespan == 1.5\n"
        assert lint_source(src, module="tests.sim.test_engine").findings == []
        assert len(lint_source(src, module="repro.sim.engine").findings) == 1


class TestRl004Details:
    def test_counts_each_offending_class(self):
        report = lint_fixture("rl004_bad.txt")
        assert len(report.findings) == 3
        assert {"CustomEq", "CustomHash", "DataclassEq"} == {
            f.message.split("'")[1] for f in report.findings
        }


class TestRl005Details:
    def test_counts_defaults_and_module_state(self):
        report = lint_fixture("rl005_bad.txt")
        assert len(report.findings) == 4

    def test_module_state_scoped_to_sim_and_runtime(self):
        src = "_CACHE = {}\n"
        assert len(lint_source(src, module="repro.sim.engine").findings) == 1
        assert len(lint_source(src, module="repro.runtime.cache").findings) == 1
        assert lint_source(src, module="repro.experiments.registry").findings == []

    def test_mutable_default_flagged_everywhere(self):
        src = "def f(x: list = []) -> list:\n    return x\n"
        report = lint_source(src, module="repro.experiments.registry")
        assert [f.code for f in report.findings] == ["RL005"]


class TestRl006Details:
    def test_counts_each_gap(self):
        report = lint_fixture("rl006_bad.txt")
        assert len(report.findings) == 4

    def test_messages_name_the_missing_pieces(self):
        report = lint_fixture("rl006_bad.txt")
        by_name = {f.message.split("'")[1]: f.message for f in report.findings}
        assert "return" in by_name["no_return_annotation"]
        assert "a" in by_name["untyped_params"]
        assert "*args" in by_name["PublicThing.star_args"]

    def test_scoped_out_of_test_modules(self):
        src = "def test_x():\n    pass\n"
        assert lint_source(src, module="tests.sim.test_engine").findings == []
        assert len(lint_source(src, module="repro.util.seq").findings) == 1


class TestRl007Details:
    def test_counts_every_violation(self):
        # MutableEvent, ExplicitlyMutable, NotADataclass, DerivedEvent,
        # plus the unannotated class attribute in PartiallyTyped.
        report = lint_fixture("rl007_bad.txt")
        assert len(report.findings) == 5

    def test_transitive_subclass_covered(self):
        report = lint_fixture("rl007_bad.txt")
        assert any("DerivedEvent" in f.message for f in report.findings)

    def test_unannotated_field_names_the_attribute(self):
        report = lint_fixture("rl007_bad.txt")
        messages = [f.message for f in report.findings if "PartiallyTyped" in f.message]
        assert len(messages) == 1
        assert "DEFAULT_KIND" in messages[0]

    def test_non_event_dataclasses_out_of_scope(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Plain:\n"
            "    x: int\n"
        )
        assert lint_source(src, module="repro.obs.events").findings == []

    def test_frozen_via_dotted_decorator(self):
        src = (
            "import dataclasses\n"
            "from repro.obs.events import SimEvent\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Ok(SimEvent):\n"
            "    x: int\n"
        )
        assert lint_source(src, module="repro.obs.events").findings == []


class TestRl008Details:
    LOOP = "def f(task_cols: list) -> None:\n    for c in task_cols:\n        print(c)\n"

    def test_fires_in_batch_modules(self):
        report = lint_source(self.LOOP, module="repro.batch.engine")
        assert [f.code for f in report.findings] == ["RL008"]

    def test_silent_outside_batch(self):
        assert lint_source(self.LOOP, module="repro.sim.engine").findings == []
        assert lint_source(self.LOOP, module="repro.core.scheduler").findings == []

    def test_range_len_fires_regardless_of_name(self):
        src = "def f(xs: list) -> None:\n    for i in range(len(xs)):\n        print(i)\n"
        report = lint_source(src, module="repro.batch.engine")
        assert [f.code for f in report.findings] == ["RL008"]

    def test_attribute_iterables_resolved(self):
        src = (
            "class C:\n"
            "    def f(self) -> None:\n"
            "        for d in self.queue_demand:\n"
            "            print(d)\n"
        )
        report = lint_source(src, module="repro.batch.engine")
        assert [f.code for f in report.findings] == ["RL008"]
        assert "queue" in report.findings[0].message

    def test_batch_axis_loops_not_flagged(self):
        src = "def f(reports: list) -> None:\n    for r in reports:\n        print(r)\n"
        assert lint_source(src, module="repro.batch.adapter").findings == []

    def test_line_suppression_honored(self):
        src = (
            "def f(task_cols: list) -> None:\n"
            "    for c in task_cols:  # repro-lint: disable=RL008 -- boundary\n"
            "        print(c)\n"
        )
        assert lint_source(src, module="repro.batch.adapter").findings == []

    def test_counts_every_loop(self):
        report = lint_fixture("rl008_bad.txt")
        assert len(report.findings) == 3


class TestSemanticFixtures:
    """RL009 runs as a single-file project over its fixtures."""

    @pytest.mark.parametrize("code", SEMANTIC_CODES)
    def test_positive_fixture_triggers_only_its_rule(self, code):
        report = lint_semantic_fixture(f"{code.lower()}_bad.txt", code)
        codes = {f.code for f in report.findings}
        assert codes == {code}, f"{code} fixture produced {codes or 'nothing'}"

    @pytest.mark.parametrize("code", SEMANTIC_CODES)
    def test_negative_fixture_is_clean(self, code):
        report = lint_semantic_fixture(f"{code.lower()}_good.txt", code)
        assert report.findings == []
