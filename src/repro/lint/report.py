"""Finding reporters: text and JSON."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.findings import Finding


def render_text(findings: List[Finding]) -> str:
    """GCC-style ``file:line:col: rule message`` listing."""
    if not findings:
        return "simlint: no findings"
    lines = [finding.render() for finding in findings]
    return "\n".join([*lines, f"simlint: {len(findings)} error(s)"])


def render_json(findings: List[Finding]) -> str:
    """JSON document with one row per finding plus totals."""
    document: Dict[str, object] = {
        "findings": [finding.to_dict() for finding in findings],
        "errors": len(findings),
    }
    return json.dumps(document, indent=2)

