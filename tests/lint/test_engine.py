"""The simlint engine, registry, reporters — and the repo's own code."""

import json
from pathlib import Path

import pytest

import repro
from repro.lint import (
    FileRule,
    Finding,
    LintEngine,
    exit_code,
    lint_source,
    make_rules,
    render_json,
    render_text,
)
from repro.lint.engine import PARSE_ERROR_RULE_ID, check_module, rule
from repro.lint.symbols import SymbolTable, parse_module

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_ROOT.parent.parent


#: The rules simlint enforces; a rule module dropped from
#: ``repro/lint/rules/__init__.py`` would otherwise let the clean-repo
#: test pass with nothing checked.
KEPT_RULE_IDS = [
    "GRIT-C001",
    "GRIT-C002",
    "GRIT-C003",
    "GRIT-C004",
    "GRIT-C005",
    "GRIT-C006",
    "GRIT-C007",
    "GRIT-C008",
    "GRIT-D001",
    "GRIT-D002",
    "GRIT-D003",
    "GRIT-F003",
    "GRIT-F004",
    "GRIT-H001",
]


class TestRegistry:
    def test_catalog_is_nonempty_sorted_and_unique(self):
        rules = make_rules()
        rule_ids = [r.rule_id for r in rules]
        assert len(rule_ids) >= 8
        assert rule_ids == sorted(rule_ids)
        assert len(set(rule_ids)) == len(rule_ids)

    def test_catalog_is_exactly_the_kept_rules(self):
        assert [r.rule_id for r in make_rules()] == KEPT_RULE_IDS

    def test_every_rule_has_identity_and_hint(self):
        for r in make_rules():
            assert r.rule_id.startswith("GRIT-")
            assert r.description
            assert r.hint

    def test_duplicate_rule_id_rejected(self):
        class Clone(FileRule):
            rule_id = make_rules()[0].rule_id
            description = "clone"

        with pytest.raises(ValueError):
            rule(Clone)

    def test_rule_without_id_rejected(self):
        class Anonymous(FileRule):
            description = "nameless"

        with pytest.raises(ValueError):
            rule(Anonymous)


class TestRepoIsClean:
    def test_lint_finds_nothing_in_the_package(self):
        engine = LintEngine(PACKAGE_ROOT, repo_root=REPO_ROOT)
        findings = engine.run()
        assert findings == [], render_text(findings)

    def test_path_selection_narrows_file_rules(self):
        engine = LintEngine(PACKAGE_ROOT, repo_root=REPO_ROOT)
        findings = engine.run(paths=[PACKAGE_ROOT / "uvm"])
        assert findings == [], render_text(findings)


class TestEngineMechanics:
    def test_findings_are_sorted(self):
        source = (
            "def b(y={}):\n"
            "    return y\n"
            "\n"
            "def a(x=[]):\n"
            "    return x\n"
        )
        findings = lint_source(source, relpath="harness/fixture.py")
        assert [f.line for f in findings] == [1, 4]

    def test_fixture_outside_package_is_linted(self, tmp_path):
        bad = tmp_path / "fixture.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        engine = LintEngine(PACKAGE_ROOT, repo_root=REPO_ROOT)
        findings = engine.run(paths=[bad])
        assert [f.rule_id for f in findings].count("GRIT-H001") == 1

    def test_unparsable_fixture_becomes_parse_error_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        engine = LintEngine(PACKAGE_ROOT, repo_root=REPO_ROOT)
        findings = engine.run(paths=[bad])
        parse_errors = [
            f for f in findings if f.rule_id == PARSE_ERROR_RULE_ID
        ]
        assert len(parse_errors) == 1

    def test_unparsable_package_module_becomes_parse_error(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f(x=[]):\n    return x\n")
        (tmp_path / "broken.py").write_text("def broken(:\n")
        findings = LintEngine(tmp_path).run()
        assert [(f.rule_id, f.path) for f in findings] == [
            (PARSE_ERROR_RULE_ID, "broken.py"),
            ("GRIT-H001", "ok.py"),
        ]

    def test_single_walk_dispatch_reaches_all_rules(self, tmp_path):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(
            "import time\n"
            "\n"
            "def f(x=[]):\n"
            "    for gpu in page.replicas:\n"
            "        x.append(time.time())\n"
            "    return x\n"
        )
        module = parse_module(fixture, "uvm/fixture.py")
        found = {f.rule_id for f in check_module(module, make_rules())}
        assert {"GRIT-D001", "GRIT-D003", "GRIT-H001"} <= found


class TestReporters:
    def _findings(self):
        return [
            Finding(
                rule_id="GRIT-T001",
                path="uvm/x.py",
                line=3,
                col=4,
                message="boom",
                hint="do not boom",
            ),
            Finding(
                rule_id="GRIT-T002",
                path="sim/y.py",
                line=9,
                message="hmm",
            ),
        ]

    def test_text_report(self):
        text = render_text(self._findings())
        assert "uvm/x.py:3:4: GRIT-T001 boom" in text
        assert "hint: do not boom" in text
        assert text.endswith("simlint: 2 error(s)")
        assert render_text([]) == "simlint: no findings"

    def test_json_report_round_trips(self):
        data = json.loads(render_json(self._findings()))
        assert data["errors"] == 2
        assert "warnings" not in data
        assert "severity" not in data["findings"][0]
        assert data["findings"][0]["rule"] == "GRIT-T001"
        assert data["findings"][0]["line"] == 3

    def test_exit_code_policy(self):
        findings = self._findings()
        assert exit_code(findings) == 1
        assert exit_code([findings[1]]) == 1  # every finding gates
        assert exit_code([]) == 0


class TestSymbolTable:
    def test_scan_collects_modules_and_docs(self):
        symbols = SymbolTable.scan(PACKAGE_ROOT, REPO_ROOT)
        assert symbols.module("cli.py") is not None
        assert symbols.module("uvm/driver.py") is not None
        assert "GRIT" in symbols.docs_text
        assert symbols.parse_failures == ()

    def test_enum_members_and_uses(self):
        symbols = SymbolTable.scan(PACKAGE_ROOT, REPO_ROOT)
        members = dict(symbols.enum_members("stats/events.py", "EventKind"))
        assert "MIGRATION" in members
        uses = symbols.attribute_uses("EventKind")
        assert any(
            relpath.startswith("uvm/")
            for relpath, _ in uses.get("MIGRATION", ())
        )
