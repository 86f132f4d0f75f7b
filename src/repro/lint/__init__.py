"""simlint: the GRIT reproduction's own static-analysis pass.

An AST-based rule engine with repo-specific rules in four families —
determinism (no wall clock / unseeded RNG / unordered-set iteration in
the simulation core), hygiene (mutable defaults), cross-module
consistency (policy registry reachability, EventKind emission coverage,
LatencyCategory-typed charges, documented CLI subcommands, executor
coverage, timing-kernel routing), and provenance (every config field,
``GRIT_*`` variable and CLI flag is consumed).  Run it via
``grit-repro lint`` or programmatically:

    from pathlib import Path
    from repro.lint import LintEngine

    findings = LintEngine(Path("src/repro"), Path(".")).run()
    assert not findings

See docs/static_analysis.md for the rule catalog and how to add rules.
"""

from repro.lint.engine import (
    LintEngine,
    FileRule,
    ProjectRule,
    Rule,
    check_module,
    lint_source,
    make_rules,
    registered_rules,
    rule,
)
from repro.lint.findings import Finding, Severity, exit_code
from repro.lint.report import render_json, render_text
from repro.lint.symbols import ModuleInfo, SymbolTable

__all__ = [
    "Finding",
    "Severity",
    "exit_code",
    "LintEngine",
    "FileRule",
    "ProjectRule",
    "Rule",
    "check_module",
    "lint_source",
    "make_rules",
    "registered_rules",
    "rule",
    "render_json",
    "render_text",
    "ModuleInfo",
    "SymbolTable",
]
