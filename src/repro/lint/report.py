"""Finding reporters: text and JSON."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.findings import Finding, Severity


def render_text(findings: List[Finding]) -> str:
    """GCC-style ``file:line:col: rule [severity] message`` listing."""
    if not findings:
        return "simlint: no findings"
    lines = [finding.render() for finding in findings]
    errors = sum(
        1 for finding in findings if finding.severity is Severity.ERROR
    )
    warnings = len(findings) - errors
    summary = f"simlint: {errors} error(s), {warnings} warning(s)"
    return "\n".join([*lines, summary])


def render_json(findings: List[Finding]) -> str:
    """JSON document with one row per finding plus totals."""
    document: Dict[str, object] = {
        "findings": [finding.to_dict() for finding in findings],
        "errors": sum(
            1
            for finding in findings
            if finding.severity is Severity.ERROR
        ),
        "warnings": sum(
            1
            for finding in findings
            if finding.severity is Severity.WARNING
        ),
    }
    return json.dumps(document, indent=2)

