"""Each simlint rule: one violating and one clean fixture."""

import textwrap

from repro.lint.engine import LintEngine, lint_source


def ids(findings):
    return [finding.rule_id for finding in findings]


def lint(source, relpath="uvm/fixture.py"):
    return lint_source(textwrap.dedent(source), relpath=relpath)


class TestWallClockRule:
    def test_flags_time_calls(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert ids(findings) == ["GRIT-D001"]
        assert "time.time()" in findings[0].message
        assert findings[0].path == "uvm/fixture.py"
        assert findings[0].line == 5

    def test_flags_datetime_and_from_imports(self):
        findings = lint(
            """
            from time import monotonic

            def stamp(datetime):
                return datetime.now()
            """
        )
        assert ids(findings) == ["GRIT-D001", "GRIT-D001"]

    def test_clean_and_out_of_scope(self):
        clean = """
        def stamp(clock):
            return clock
        """
        assert lint(clean) == []
        dirty = """
        import time

        def stamp():
            return time.time()
        """
        # The harness is allowed to read the wall clock.
        assert lint(dirty, relpath="harness/fixture.py") == []


class TestUnseededRngRule:
    def test_flags_global_random_state(self):
        findings = lint(
            """
            import random

            def pick():
                return random.randint(0, 3)
            """
        )
        assert ids(findings) == ["GRIT-D002"]

    def test_flags_numpy_legacy_api(self):
        findings = lint(
            """
            import numpy as np

            def pick():
                return np.random.rand()
            """
        )
        assert ids(findings) == ["GRIT-D002"]

    def test_flags_unseeded_constructor(self):
        findings = lint(
            """
            import random

            rng = random.Random()
            """
        )
        assert ids(findings) == ["GRIT-D002"]
        assert "without a seed" in findings[0].message

    def test_seeded_constructors_are_clean(self):
        clean = """
        import random
        import numpy as np

        rng = random.Random(42)
        gen = np.random.default_rng(7)
        """
        assert lint(clean) == []


class TestUnorderedIterationRule:
    def test_flags_set_attribute_iteration(self):
        findings = lint(
            """
            def drop(page):
                for replica in page.replicas:
                    release(replica)
            """,
            relpath="sim/fixture.py",
        )
        assert ids(findings) == ["GRIT-D003"]

    def test_flags_holders_and_assigned_sets(self):
        findings = lint(
            """
            def collapse(page, writer):
                losers = page.holders() - {writer}
                for loser in losers:
                    flush(loser)
            """
        )
        assert ids(findings) == ["GRIT-D003"]

    def test_flags_comprehension_over_set_literal(self):
        findings = lint(
            """
            def order(gpus):
                return [cost(g) for g in {1, 2, 3}]
            """,
            relpath="policies/fixture.py",
        )
        assert ids(findings) == ["GRIT-D003"]

    def test_sorted_is_the_escape_hatch(self):
        clean = """
        def drop(page, writer):
            losers = page.holders() - {writer}
            for loser in sorted(losers):
                flush(loser)
            for replica in sorted(page.replicas):
                release(replica)
        """
        assert lint(clean) == []

    def test_out_of_scope_directories_are_clean(self):
        dirty = """
        def drop(page):
            for replica in page.replicas:
                release(replica)
        """
        assert lint(dirty, relpath="harness/fixture.py") == []


class TestMutableDefaultRule:
    def test_flags_literals_and_constructors(self):
        findings = lint(
            """
            def a(x=[]):
                return x

            def b(*, y={}):
                return y

            def c(z=set()):
                return z
            """,
            relpath="harness/fixture.py",  # unscoped: applies everywhere
        )
        assert ids(findings) == ["GRIT-H001"] * 3

    def test_immutable_defaults_are_clean(self):
        clean = """
        def a(x=None, y=(), z=0):
            return x or list(y) or z
        """
        assert lint(clean, relpath="harness/fixture.py") == []


class TestLatencyChargeRule:
    def test_flags_literal_category(self):
        findings = lint(
            """
            def account(breakdown):
                breakdown.charge("local", 100)
            """,
            relpath="stats/fixture.py",
        )
        assert ids(findings) == ["GRIT-C003"]

    def test_member_variable_and_subscript_are_clean(self):
        clean = """
        def account(breakdown, category, name):
            breakdown.charge(LatencyCategory.LOCAL, 100)
            breakdown.charge(category, 50)
            breakdown.charge(LatencyCategory[name], 25)
        """
        assert lint(clean, relpath="stats/fixture.py") == []


class TestTimingKernelRoutingRule:
    def test_flags_raw_charging_constant_read(self):
        findings = lint(
            """
            def charge(m, scale):
                return int(m.config.latency.pipeline_flush * scale)
            """,
            relpath="uvm/fixture.py",
        )
        assert ids(findings) == ["GRIT-C007"]

    def test_flags_bare_latency_name(self):
        findings = lint(
            """
            def charge(latency):
                return latency.host_fault_service
            """,
            relpath="sim/fixture.py",
        )
        assert ids(findings) == ["GRIT-C007"]

    def test_kernel_methods_with_same_names_are_clean(self):
        clean = """
        def charge(machine, scale):
            cycles = machine.kernel.pipeline_flush(scale)
            cycles += machine.kernel.invalidation(2, scale)
            return cycles
        """
        assert lint(clean, relpath="uvm/fixture.py") == []

    def test_kernel_modules_may_read_constants(self):
        allowed = """
        def flush(self, scale):
            return int(self.latency.pipeline_flush * scale)
        """
        assert lint(allowed, relpath="sim/timing.py") == []

    def test_non_charging_latency_fields_are_clean(self):
        clean = """
        def discount(config):
            return config.latency.acud_discount
        """
        assert lint(clean, relpath="policies/fixture.py") == []


def _write_package(tmp_path, registry_body, docs=""):
    """Build a minimal fake package for the project-wide rules."""
    pkg = tmp_path / "pkg"
    (pkg / "policies").mkdir(parents=True)
    (pkg / "stats").mkdir()
    (pkg / "policies" / "__init__.py").write_text("")
    (pkg / "policies" / "base.py").write_text("class PlacementPolicy: pass\n")
    (pkg / "policies" / "rogue.py").write_text("class Rogue: pass\n")
    (pkg / "policies" / "registry.py").write_text(registry_body)
    (pkg / "stats" / "events.py").write_text(
        "import enum\n\n\n"
        "class EventKind(enum.Enum):\n"
        "    USED = 'used'\n"
        "    ORPHAN = 'orphan'\n"
    )
    (pkg / "emitter.py").write_text(
        "from pkg.stats.events import EventKind\n\n\n"
        "def emit(log, vpn):\n"
        "    log.emit(EventKind.USED, vpn)\n"
    )
    (pkg / "cli.py").write_text(
        "def build(sub):\n"
        "    sub.add_parser('frobnicate')\n"
    )
    (tmp_path / "README.md").write_text(docs)
    return pkg


class TestProjectRules:
    def test_unregistered_policy_and_orphan_event(self, tmp_path):
        pkg = _write_package(
            tmp_path,
            registry_body="_FACTORIES = {}\n",
            docs="run `frobnicate` to frobnicate",
        )
        engine = LintEngine(pkg, repo_root=tmp_path)
        found = ids(engine.run(paths=[]))
        assert "GRIT-C001" in found  # rogue.py not imported
        assert "GRIT-C002" in found  # EventKind.ORPHAN never emitted
        assert "GRIT-C004" not in found

    def test_undocumented_cli_subcommand(self, tmp_path):
        pkg = _write_package(
            tmp_path,
            registry_body="from repro.policies.rogue import Rogue\n",
            docs="nothing relevant here",
        )
        engine = LintEngine(pkg, repo_root=tmp_path)
        found = ids(engine.run(paths=[]))
        assert "GRIT-C004" in found
        assert "GRIT-C001" not in found

    def test_no_docs_text_degrades_to_noop(self, tmp_path):
        pkg = _write_package(
            tmp_path,
            registry_body="from repro.policies.rogue import Rogue\n",
        )
        (tmp_path / "README.md").unlink()
        engine = LintEngine(pkg, repo_root=tmp_path)
        assert "GRIT-C004" not in ids(engine.run(paths=[]))


def _write_obs_package(tmp_path, consumer="", obs_doc=None):
    """Minimal fake package exercising the metric-catalog rule."""
    pkg = tmp_path / "pkg"
    (pkg / "obs").mkdir(parents=True)
    (pkg / "obs" / "__init__.py").write_text("")
    (pkg / "obs" / "catalog.py").write_text(
        "USED_METRIC = 'obs.used.total'\n"
        "ORPHAN_METRIC = 'obs.orphan.total'\n"
        "METRICS = (USED_METRIC, ORPHAN_METRIC)\n"
    )
    if consumer:
        (pkg / "sampler.py").write_text(consumer)
    if obs_doc is not None:
        (tmp_path / "docs").mkdir(exist_ok=True)
        (tmp_path / "docs" / "observability.md").write_text(obs_doc)
    (tmp_path / "README.md").write_text("")
    return pkg


class TestMetricCatalogRule:
    CONSUMER = (
        "from pkg.obs import catalog\n\n\n"
        "def sample(registry):\n"
        "    registry.inc(catalog.USED_METRIC)\n"
    )
    BOTH_CONSUMER = (
        "from pkg.obs import catalog\n\n\n"
        "def sample(registry):\n"
        "    registry.inc(catalog.USED_METRIC)\n"
        "    registry.inc(catalog.ORPHAN_METRIC)\n"
    )

    def test_flags_unused_and_undocumented_metrics(self, tmp_path):
        pkg = _write_obs_package(
            tmp_path,
            consumer=self.CONSUMER,
            obs_doc="only `obs.used.total` is documented",
        )
        engine = LintEngine(pkg, repo_root=tmp_path)
        findings = [
            finding
            for finding in engine.run(paths=[])
            if finding.rule_id == "GRIT-C005"
        ]
        messages = [finding.message for finding in findings]
        assert any("ORPHAN_METRIC" in message for message in messages)
        assert any("obs.orphan.total" in message for message in messages)
        assert not any("USED_METRIC" in message for message in messages)

    def test_clean_catalog_passes(self, tmp_path):
        pkg = _write_obs_package(
            tmp_path,
            consumer=self.BOTH_CONSUMER,
            obs_doc="`obs.used.total` and `obs.orphan.total`",
        )
        engine = LintEngine(pkg, repo_root=tmp_path)
        assert "GRIT-C005" not in ids(engine.run(paths=[]))

    def test_missing_doc_degrades_to_usage_check_only(self, tmp_path):
        pkg = _write_obs_package(tmp_path, consumer=self.BOTH_CONSUMER)
        engine = LintEngine(pkg, repo_root=tmp_path)
        assert "GRIT-C005" not in ids(engine.run(paths=[]))

    def test_usage_inside_catalog_does_not_count(self, tmp_path):
        pkg = _write_obs_package(
            tmp_path,
            consumer="",
            obs_doc="`obs.used.total` and `obs.orphan.total`",
        )
        engine = LintEngine(pkg, repo_root=tmp_path)
        found = ids(engine.run(paths=[]))
        assert found.count("GRIT-C005") == 2
