"""Process-parallel sweeps agree with sequential execution."""

import json
import multiprocessing
import os

import pytest

from repro.config import SystemConfig
from repro.harness.cache import DiskCachedRunner, result_digest
from repro.harness.experiment import ExperimentRunner
from repro.harness.figures import headline_keys
from repro.harness.orchestrator import (
    SweepError,
    SweepTask,
    execute_task,
    run_keys_parallel,
    warm_runner_parallel,
)

SCALE = 0.05


def sample_keys(runner):
    return [
        runner.key("fir", "on_touch"),
        runner.key("fir", "grit"),
        runner.key("st", "on_touch"),
    ]


class TestRunKeysParallel:
    def test_parallel_matches_sequential(self):
        runner = ExperimentRunner(scale=SCALE)
        keys = sample_keys(runner)
        parallel = run_keys_parallel(keys, workers=2)
        assert list(parallel) == keys
        for key in keys:
            assert result_digest(parallel[key]) == result_digest(
                runner.run(key)
            )

    def test_duplicate_keys_deduplicated(self):
        runner = ExperimentRunner(scale=SCALE)
        key = runner.key("fir", "on_touch")
        results = run_keys_parallel([key, key, key], workers=1)
        assert len(results) == 1

    def test_failing_task_is_named(self):
        runner = ExperimentRunner(scale=SCALE)
        keys = [
            runner.key("fir", "on_touch"),
            runner.key("st", "grit", eviction_policy="bogus"),
        ]
        with pytest.raises(SweepError, match="st/grit") as raised:
            run_keys_parallel(keys, workers=2)
        # Chained to the exception the worker raised.
        assert isinstance(raised.value.__cause__, ValueError)

    def test_base_config_reaches_workers(self):
        """Regression: workers used to rebuild a *default*
        ExperimentRunner, silently simulating the wrong config."""
        config = SystemConfig(issue_gap=8, dram_footprint_fraction=0.5)
        runner = ExperimentRunner(base_config=config, scale=SCALE)
        keys = sample_keys(runner)
        parallel = run_keys_parallel(
            keys, workers=2, base_config=config
        )
        for key in keys:
            expected = runner.run(key)
            assert parallel[key].total_cycles == expected.total_cycles
            assert (
                parallel[key].counters.as_dict()
                == expected.counters.as_dict()
            )

    def test_base_config_changes_results(self):
        """Sanity: the config in the regression test is load-bearing."""
        config = SystemConfig(issue_gap=8, dram_footprint_fraction=0.5)
        runner = ExperimentRunner(scale=SCALE)
        key = runner.key("fir", "on_touch")
        tweaked = run_keys_parallel([key], workers=1, base_config=config)
        assert tweaked[key].total_cycles != runner.run(key).total_cycles


class TestWarmRunner:
    def test_warmed_cache_serves_without_resimulation(self):
        runner = ExperimentRunner(scale=SCALE)
        keys = sample_keys(runner)
        warm_runner_parallel(runner, keys, workers=1)
        cached = runner._cache[keys[0]]
        assert runner.run(keys[0]) is cached

    def test_warming_respects_runner_config(self):
        """Regression: warming a non-default runner used to fill its
        cache with default-config results."""
        config = SystemConfig(issue_gap=8, dram_footprint_fraction=0.5)
        warmed = ExperimentRunner(base_config=config, scale=SCALE)
        keys = sample_keys(warmed)
        warm_runner_parallel(warmed, keys, workers=2)
        fresh = ExperimentRunner(base_config=config, scale=SCALE)
        for key in keys:
            assert (
                warmed.run(key).total_cycles
                == fresh.run(key).total_cycles
            )

    def test_headline_keys_cover_figure_17(self):
        runner = ExperimentRunner(scale=SCALE)
        keys = headline_keys(runner)
        assert len(keys) == 8 * 5
        policies = {key.policy for key in keys}
        assert policies == {
            "on_touch",
            "access_counter",
            "duplication",
            "grit",
            "ideal",
        }


def _hammer_cache(args):
    """Worker for the concurrent-writers test (module level: picklable)."""
    cache_dir, scale = args
    runner = DiskCachedRunner(cache_dir, scale=scale)
    result = runner.run(runner.key("fir", "on_touch"))
    return result.total_cycles


class TestConcurrentDiskCache:
    def test_concurrent_writers_produce_no_torn_json(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with multiprocessing.Pool(4) as pool:
            cycles = pool.map(_hammer_cache, [(cache_dir, SCALE)] * 4)
        assert len(set(cycles)) == 1  # deterministic runs agree
        files = os.listdir(cache_dir)
        assert files and not [f for f in files if ".tmp." in f]
        for name in files:
            with open(os.path.join(cache_dir, name)) as handle:
                json.load(handle)  # every file parses

    def test_orchestrator_workers_share_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runner = ExperimentRunner(scale=SCALE)
        keys = sample_keys(runner)
        run_keys_parallel(keys, workers=2, cache_dir=cache_dir)
        # A fresh runner serves every key from disk, no simulation.
        warmed = DiskCachedRunner(cache_dir, scale=SCALE)
        for key in keys:
            warmed.run(key)
        assert warmed.disk_hits == len(keys)
        assert warmed.disk_misses == 0


class TestExecuteTask:
    def test_execute_task_matches_runner(self):
        config = SystemConfig(issue_gap=8, dram_footprint_fraction=0.5)
        runner = ExperimentRunner(base_config=config, scale=SCALE)
        key = runner.key("fir", "grit")
        result = execute_task(SweepTask(key, config))
        assert result_digest(result) == result_digest(runner.run(key))
