"""Text, JSON, and SARIF rendering of a :class:`~repro.lint.engine.LintReport`."""

from __future__ import annotations

import json

from repro.lint.engine import LintReport
from repro.lint.registry import SemanticRule, all_rules

__all__ = ["render_text", "render_json", "render_sarif", "render_rule_list"]

#: Tool identity stamped into SARIF output.
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_TOOL_NAME = "repro-lint"


def render_text(report: LintReport) -> str:
    """GCC-style one-line-per-finding text output plus a summary line."""
    lines = [f"{f.location()}: {f.code} {f.message}" for f in report.findings]
    lines.extend(f"{path}: error: {message}" for path, message in report.errors)
    n = len(report.findings)
    noun = "finding" if n == 1 else "findings"
    file_noun = "file" if report.files_checked == 1 else "files"
    summary = (
        f"{n} {noun} in {report.files_checked} {file_noun}"
        f" ({report.suppressed} suppressed)"
    )
    if report.errors:
        summary += f", {len(report.errors)} failed to parse"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable JSON document (sorted findings, fixed key order)."""
    payload = {
        "version": 1,
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "findings": [f.to_dict() for f in report.findings],
        "errors": [{"path": p, "message": m} for p, m in report.errors],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _sarif_rules() -> list[dict[str, object]]:
    return [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
        }
        for rule in all_rules()
    ]


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 document for code-scanning UIs (one run, one tool).

    Findings map to ``results`` (level ``warning`` — the exit code, not
    the SARIF level, is the CI gate), parse errors to tool-level
    ``notifications``, and the rule catalogue (per-file and semantic) to
    the driver's ``rules`` so viewers can show descriptions inline.
    """
    results = [
        {
            "ruleId": f.code,
            "level": "warning",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in report.findings
    ]
    notifications = [
        {
            "level": "error",
            "message": {"text": message},
            "locations": [
                {"physicalLocation": {"artifactLocation": {"uri": path}}}
            ],
        }
        for path, message in report.errors
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "rules": _sarif_rules(),
                    }
                },
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": not report.errors,
                        "toolExecutionNotifications": notifications,
                    }
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def render_rule_list() -> str:
    """Human-readable table of every registered rule (``--list-rules``)."""
    lines = []
    # Per-file rules first, then the semantic tier; each sorted by code.
    for rule in sorted(all_rules(), key=lambda r: isinstance(r, SemanticRule)):
        tag = "  [semantic]" if isinstance(rule, SemanticRule) else ""
        lines.append(f"{rule.code}  {rule.name}{tag}")
        lines.append(f"       {rule.description}")
    return "\n".join(lines)
