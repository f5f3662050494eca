"""Reporter output shapes: text, JSON, and the rule listing."""

import json

from repro.lint import all_rules, lint_source
from repro.lint.reporters import render_json, render_rule_list, render_text

DIRTY = "import random\n\n\ndef draw() -> float:\n    return random.random()\n"


def test_text_reporter_lists_location_code_and_summary():
    report = lint_source(DIRTY, path="pkg/mod.py")
    text = render_text(report)
    assert "pkg/mod.py:5:" in text
    assert "RL001" in text
    assert text.splitlines()[-1] == "1 finding in 1 file (0 suppressed)"


def test_text_reporter_mentions_suppressions():
    src = (
        "def check(makespan: float) -> bool:\n"
        "    return makespan == 1.5  # repro-lint: disable=RL003\n"
    )
    text = render_text(lint_source(src, module="repro.sim.engine"))
    assert "1 suppressed" in text


def test_json_reporter_round_trips():
    report = lint_source(DIRTY, path="pkg/mod.py")
    payload = json.loads(render_json(report))
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    (finding,) = payload["findings"]
    assert finding["path"] == "pkg/mod.py"
    assert finding["code"] == "RL001"
    assert finding["line"] == 5


def test_rule_list_covers_every_rule():
    listing = render_rule_list()
    for rule in all_rules():
        assert rule.code in listing
        assert rule.name in listing



def test_sarif_reporter_shape():
    from repro.lint.reporters import render_sarif

    report = lint_source(DIRTY, path="pkg/mod.py")
    payload = json.loads(render_sarif(report))
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert "RL001" in rule_ids and "RL012" in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "RL001"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "pkg/mod.py"
    assert location["region"]["startLine"] == 5


def test_sarif_reports_one_based_columns():
    from repro.lint.reporters import render_sarif

    report = lint_source(DIRTY, path="pkg/mod.py")
    payload = json.loads(render_sarif(report))
    region = payload["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
        "region"
    ]
    assert region["startColumn"] == report.findings[0].col + 1
