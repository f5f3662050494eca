"""Suppression-comment parsing and filtering."""

from repro.lint import get_rule, lint_source, parse_suppressions
from tests.lint.conftest import LEAKY_MODEL

BAD_LINE = "def check(makespan: float) -> bool:\n    return makespan == 1.5\n"


class TestParsing:
    def test_same_line_directive(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=RL003\n")
        assert sup.is_suppressed(1, "RL003")
        assert not sup.is_suppressed(1, "RL001")
        assert not sup.is_suppressed(2, "RL003")

    def test_multiple_codes_comma_separated(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=RL003,RL005\n")
        assert sup.is_suppressed(1, "RL003")
        assert sup.is_suppressed(1, "RL005")

    def test_standalone_directive_covers_next_line(self):
        sup = parse_suppressions("# repro-lint: disable=RL003 -- justified\nx = 1\n")
        assert sup.is_suppressed(2, "RL003")

    def test_trailing_directive_does_not_leak_to_next_line(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=RL003\ny = 2\n")
        assert not sup.is_suppressed(2, "RL003")

    def test_disable_file(self):
        sup = parse_suppressions("# repro-lint: disable-file=RL006\nx = 1\n")
        assert sup.is_suppressed(99, "RL006")
        assert not sup.is_suppressed(99, "RL003")

    def test_directive_inside_string_ignored(self):
        sup = parse_suppressions('msg = "# repro-lint: disable=RL003"\n')
        assert not sup.is_suppressed(1, "RL003")

    def test_case_insensitive_codes(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=rl003\n")
        assert sup.is_suppressed(1, "RL003")


class TestFiltering:
    def test_suppressed_finding_counted_not_reported(self):
        src = (
            "def check(makespan: float) -> bool:\n"
            "    # repro-lint: disable=RL003 -- exactness is the contract\n"
            "    return makespan == 1.5\n"
        )
        report = lint_source(src)
        assert report.findings == []
        assert report.suppressed == 1

    def test_unrelated_code_does_not_suppress(self):
        src = (
            "def check(makespan: float) -> bool:\n"
            "    # repro-lint: disable=RL001\n"
            "    return makespan == 1.5\n"
        )
        report = lint_source(src)
        assert [f.code for f in report.findings] == ["RL003"]

    def test_file_wide_suppression(self):
        report = lint_source("# repro-lint: disable-file=RL003\n" + BAD_LINE)
        assert report.findings == []
        assert report.suppressed == 1


class TestEdgeCases:
    def test_disable_file_after_code_still_covers_whole_file(self):
        # The directive may sit anywhere — including *below* the finding.
        report = lint_source(BAD_LINE + "# repro-lint: disable-file=RL003\n")
        assert report.findings == []
        assert report.suppressed == 1

    def test_disable_file_with_multiple_codes(self):
        sup = parse_suppressions("# repro-lint: disable-file=RL001, RL003\n")
        assert sup.is_suppressed(50, "RL001")
        assert sup.is_suppressed(50, "RL003")
        assert not sup.is_suppressed(50, "RL002")

    def test_one_pragma_suppresses_two_findings_on_its_line(self):
        src = (
            "import random\n\n"
            "def mix() -> bool:\n"
            "    return random.random() == 1.5  # repro-lint: disable=RL001,RL003\n"
        )
        report = lint_source(src)
        assert report.findings == []
        assert report.suppressed == 2


class TestSemanticSuppression:
    """Semantic findings filter through the anchor file's pragmas."""

    ANCHOR = "class LeakyModel(SpeedupModel):\n"

    def _run(self, anchor_lines: str):
        return lint_source(
            LEAKY_MODEL.replace(self.ANCHOR, anchor_lines),
            rules=[get_rule("RL009")],
        )

    def test_suppressed_at_the_anchor_line(self):
        report = self._run(
            "class LeakyModel(SpeedupModel):  # repro-lint: disable=RL009 -- reviewed\n"
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_standalone_pragma_covers_next_line(self):
        report = self._run("# repro-lint: disable=RL009 -- reviewed\n" + self.ANCHOR)
        assert report.findings == []
        assert report.suppressed == 1

    def test_unsuppressed_semantic_finding_reported(self):
        report = self._run(self.ANCHOR)
        assert [f.code for f in report.findings] == ["RL009"]
