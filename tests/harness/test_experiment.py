"""ExperimentRunner: caching, key building, speedups."""

import pytest

from repro.harness.experiment import (
    PAPER_APPS,
    ExperimentRunner,
    RunKey,
    geometric_mean,
)

SCALE = 0.1


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(scale=SCALE)


class TestRunner:
    def test_paper_apps_are_the_table_ii_eight(self):
        assert PAPER_APPS == (
            "bfs", "bs", "c2d", "fir", "gemm", "mm", "sc", "st",
        )

    def test_run_is_cached(self, runner):
        key = runner.key("fir", "on_touch")
        first = runner.run(key)
        second = runner.run(key)
        assert first is second

    def test_key_carries_runner_scale(self, runner):
        assert runner.key("fir", "grit").scale == SCALE

    def test_key_overrides(self, runner):
        key = runner.key("fir", "grit", num_gpus=8, fault_threshold=2)
        assert key.num_gpus == 8
        assert key.fault_threshold == 2

    def test_speedup_of_policy_against_itself_is_one(self, runner):
        assert runner.speedup("fir", "on_touch", "on_touch") == 1.0

    def test_speedups_cover_requested_workloads(self, runner):
        speedups = runner.speedups(
            "grit", "on_touch", workloads=("fir", "st")
        )
        assert set(speedups) == {"fir", "st"}
        assert all(value > 0 for value in speedups.values())

    def test_grit_variant_keys_build_variant_policies(self, runner):
        result = runner.run(
            runner.key("fir", "grit", use_pa_cache=False)
        )
        assert result.policy == "grit"

    def test_grit_acud_runs_at_the_keys_grit_settings(self):
        # Every GRIT variant reads config.grit, so the key's threshold
        # reaches grit_acud as it reaches grit.
        runner = ExperimentRunner(scale=0.05)
        result = runner.run(runner.key("bfs", "grit_acud", fault_threshold=1))
        assert result.details["policy_description"] == (
            "GRIT threshold=1 ACUD"
        )
        assert result.total_cycles == 1_403_146

    def test_prefetch_key_runs_with_prefetcher(self, runner):
        result = runner.run(runner.key("fir", "on_touch", prefetch=True))
        assert result.counters.prefetches >= 0

    def test_distinct_keys_are_distinct_cache_entries(self, runner):
        a = runner.run(runner.key("fir", "grit"))
        b = runner.run(runner.key("fir", "grit", fault_threshold=2))
        assert a is not b


class TestGeometricMean:
    def test_matches_manual_computation(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestRunKey:
    def test_hashable_and_comparable(self):
        a = RunKey(workload="fir", policy="grit")
        b = RunKey(workload="fir", policy="grit")
        assert a == b
        assert hash(a) == hash(b)
