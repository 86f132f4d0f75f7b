"""The provenance rules (GRIT-F003, GRIT-F004) on seeded corpora.

Each rule has a ``corpus/<rule>_bad`` mini-package it must fire on and
a ``corpus/<rule>_good`` fixed twin it must stay silent on.  The
corpora are real directory trees (not inline strings) so the passes
are exercised through the same engine path as ``grit-repro lint``.
"""

import textwrap
from pathlib import Path

from repro.lint import LintEngine

CORPUS = Path(__file__).resolve().parent / "corpus"


def lint_corpus(name, rule_id):
    findings = LintEngine(CORPUS / name).run()
    return [f for f in findings if f.rule_id == rule_id]


def make_package(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


class TestConfigProvenance:
    def test_flags_dead_knob_and_env_read_outside_config(self):
        hits = lint_corpus("f003_bad", "GRIT-F003")
        messages = sorted(f.message for f in hits)
        assert len(hits) == 2
        assert "TunerConfig.dead_knob" in messages[0]
        assert "GRIT_TUNER" in messages[1]
        knob = next(f for f in hits if "dead_knob" in f.message)
        assert knob.path == "config.py"
        env = next(f for f in hits if "GRIT_TUNER" in f.message)
        assert env.path == "sim/use.py"
        assert env.line == 9

    def test_silent_on_fixed_corpus(self):
        assert lint_corpus("f003_good", "GRIT-F003") == []

    def test_every_env_read_form_outside_config_is_flagged(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "config.py": """\
                import dataclasses
                import os


                @dataclasses.dataclass
                class C:
                    knob: int = int(os.getenv("GRIT_KNOB", "1"))
                """,
                "sim/use.py": """\
                import os


                def effective(config):
                    base = config.knob
                    os.getenv("GRIT_A")
                    os.environ["GRIT_B"]
                    os.environ.get("HOME")
                    return os.environ.get("GRIT_SECRET", base)
                """,
            },
        )
        findings = LintEngine(root).run()
        hits = [f for f in findings if f.rule_id == "GRIT-F003"]
        assert sorted((f.path, f.line) for f in hits) == [
            ("sim/use.py", 6),
            ("sim/use.py", 7),
            ("sim/use.py", 9),
        ]
        assert all("outside config.py" in f.message for f in hits)


class TestCliProvenance:
    def test_flags_unread_flag_and_orphan_subcommand(self):
        hits = lint_corpus("f004_bad", "GRIT-F004")
        assert len(hits) == 2
        messages = " | ".join(sorted(f.message for f in hits))
        assert "--ghost-flag" in messages
        assert "'orphan'" in messages
        assert all(f.path == "cli.py" for f in hits)

    def test_silent_on_helper_chain_corpus(self):
        assert lint_corpus("f004_good", "GRIT-F004") == []
